package experiments

import (
	"context"
	"fmt"
	"time"

	"ntcsim/internal/governor"
	"ntcsim/internal/parallel"
	"ntcsim/internal/qos"
	"ntcsim/internal/rng"
	"ntcsim/internal/serve"
	"ntcsim/internal/workload"
)

// serveScenario pairs a policy with a balancer constructor (balancers may
// be stateful, so each Sim gets a fresh instance).
type serveScenario struct {
	policy   serve.Policy
	balancer func() serve.Balancer
}

// serveScenarios is the one comparison grid both diurnal-day experiments
// draw from: a balancer shoot-out under the max-frequency baseline, then
// the governor policies on join-shortest-queue. Scenario i always runs on
// stream Split(i), so a row's bytes do not depend on which view prints it.
func serveScenarios(cfg *governor.Config) []serveScenario {
	fmax := cfg.Curve.MaxFreq()
	maxF := serve.Static{Label: "max-frequency", FreqHz: fmax}
	return []serveScenario{
		{maxF, serve.NewRandom},
		{maxF, serve.NewRoundRobin},
		{maxF, serve.NewLeastLoaded},
		{maxF, serve.NewJSQ},
		{serve.Static{Label: "race-to-idle", FreqHz: fmax, Sleep: true}, serve.NewJSQ},
		{serve.Tracking{}, serve.NewJSQ},
		{serve.QueueAware{}, serve.NewJSQ},
	}
}

// serveView is one question asked of the scenario grid: the heading it
// prints and the scenarios [from, to) it runs.
type serveView struct {
	title    string
	from, to int
}

var (
	// balancerView holds the policy at max-frequency to isolate the
	// balancer (the serve experiment).
	balancerView = serveView{"== Request serving: closed-loop DES over a diurnal day (web-search) ==", 0, 4}
	// policyView holds the balancer at join-shortest-queue to isolate the
	// policy (the governor experiment, paper Sec. V-C). Its first row,
	// max-frequency, is the baseline both questions share.
	policyView = serveView{"== Sec. V-C: DVFS governor policies over a diurnal day (web-search) ==", 3, 7}
)

// runServe compares load balancers on the closed-loop serving DES.
func runServe(ctx context.Context, p Params, env Env) error {
	return runDiurnalDay(ctx, p, env, balancerView)
}

// runGovernor compares DVFS+FBB operating-point policies on the
// closed-loop serving DES: what each costs in energy and tail latency
// over a diurnal day.
func runGovernor(ctx context.Context, p Params, env Env) error {
	return runDiurnalDay(ctx, p, env, policyView)
}

// runDiurnalDay serves a compressed diurnal day of web-search requests:
// Poisson arrivals hit the governed fleet through a load balancer, and
// each row of v is the MEASURED outcome — served requests, streamed tail
// quantiles, drops, energy.
func runDiurnalDay(ctx context.Context, p Params, env Env, v serveView) error {
	fmt.Fprintln(env.out(), v.title)
	cfg, trace, err := diurnalDay(ctx, p, env)
	if err != nil {
		return err
	}
	return serveReport(ctx, env, v, cfg, trace, p.Seed)
}

// diurnalDay builds the serving setup both views share from a swept
// web-search performance curve: the governor configuration (whose
// platform is the explorer's, so the DES serves its fleet), and the
// diurnal day — 96 epochs
// whose peak is 70% of the QoS capacity at fmax, compressed to one-second
// epochs so the DES serves it request by request in reasonable time
// (rates and epoch count are untouched).
func diurnalDay(ctx context.Context, p Params, env Env) (*governor.Config, governor.LoadTrace, error) {
	e := p.NewExplorer(env)
	app := workload.WebSearch()
	sweep, err := e.Sweep(ctx, app, []float64{0.2e9, 0.3e9, 0.5e9, 0.7e9, 1.0e9, 1.5e9, 2.0e9})
	if err != nil {
		return nil, governor.LoadTrace{}, err
	}
	var pts []governor.PerfPoint
	for _, pt := range sweep.Points {
		pts = append(pts, governor.PerfPoint{FreqHz: pt.FreqHz, UIPS: pt.UIPSChip})
	}
	curve, err := governor.NewPerfCurve(pts)
	if err != nil {
		return nil, governor.LoadTrace{}, err
	}
	maxUIPS := curve.UIPSAt(curve.MaxFreq())
	cfg := &governor.Config{
		Platform:       e.Platform,
		Curve:          curve,
		Tail:           qos.NewTailModel(e.Platform.TotalCores(), app.Baseline99p, maxUIPS),
		QoSLimit:       app.QoSLimit,
		Uncore:         standingUncore(e.Platform),
		MemBackgroundW: e.Platform.MemoryPowerW(0, 0),
		MemDynPerReq:   2e-3,
		Margin:         0.85,
	}
	peak := cfg.Tail.MaxLoad(cfg.QoSLimit, maxUIPS) * 0.7
	trace := governor.DiurnalTrace(96, peak, 0.15, 0.04, 1.3, rng.New(p.Seed)).WithStep(time.Second)
	return cfg, trace, nil
}

// serveRuns memoizes serve-grid results by grid index across the views
// one Env runs. Every view of one run builds the same configuration and
// trace from the same Params, so an index names one simulation.
type serveRuns map[int]serve.Result

// serveReport runs the scenarios of view v over the trace and prints the
// measured comparison table to env.Out, recording into env's Obs, Tracer
// and Telemetry hooks. Scenarios are independent simulations, so they fan
// out under the env.Jobs budget; each derives its randomness from its
// grid index, keeping the output byte-identical for any worker count (see
// TestServeReportAcrossJobs). A scenario already in env.served is printed
// from there, not rerun, so each recording hook sees it once.
func serveReport(ctx context.Context, env Env, v serveView, cfg *governor.Config,
	trace governor.LoadTrace, seed uint64) error {
	grid := serveScenarios(cfg)
	done := env.served
	if done == nil {
		done = serveRuns{}
	}
	var todo []int // grid indices of v not yet run under env
	for i := v.from; i < v.to; i++ {
		if _, ok := done[i]; !ok {
			todo = append(todo, i)
		}
	}
	root := rng.New(seed).Derive("serve-cmd")
	fresh, err := parallel.Map(ctx, len(todo), env.Jobs,
		func(ctx context.Context, k int) (serve.Result, error) {
			i := todo[k]
			sc := grid[i]
			bal := sc.balancer()
			sim, err := serve.New(serve.Config{
				Gov:      cfg,
				Policy:   sc.policy,
				Balancer: bal,
				Trace:    trace,
				Warmup:   5 * time.Second, // excludes the empty-fleet transient from the tail
				Metrics:  env.Obs,
				Tracer:   env.Tracer,
				// Each scenario records into its own series; the sampler
				// sorts by name on export, so concurrent scenario order
				// never reaches the output.
				Telemetry: env.Telemetry.Series("serve/" + sc.policy.Name() + "/" + bal.Name()),
			}, root.Split(uint64(i)))
			if err != nil {
				return serve.Result{}, err
			}
			defer sim.Close()
			return sim.Run(ctx)
		})
	if err != nil {
		return err
	}
	for k, i := range todo {
		done[i] = fresh[k]
	}
	w := env.tbl()
	fmt.Fprintln(w, "policy\tbalancer\tserved\tp50_ms\tp95_ms\tp99_ms\tp99.9_ms\tviolations\tdrops\tenergy_kJ\tavg_W")
	for i := v.from; i < v.to; i++ {
		r := done[i]
		fmt.Fprintf(w, "%s\t%s\t%d\t%.1f\t%.1f\t%.1f\t%.1f\t%d\t%d\t%.2f\t%.1f\n",
			r.Policy, r.Balancer, r.Served,
			ms(r.P50), ms(r.P95), ms(r.P99), ms(r.P999),
			r.Violations, r.Dropped, r.EnergyJ/1e3, r.AvgPowerW)
	}
	return w.Flush()
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
