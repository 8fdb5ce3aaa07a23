package experiments

import (
	"context"
	"fmt"
	"time"

	"ntcsim/internal/governor"
	"ntcsim/internal/parallel"
	"ntcsim/internal/rng"
	"ntcsim/internal/serve"
)

// runServe runs the discrete-event request-serving simulator over a
// compressed diurnal day: Poisson arrivals hit the governed fleet through
// a load balancer, and each policy row is the MEASURED outcome — served
// requests, streamed tail quantiles, drops, energy — rather than the
// analytic plan the governor experiment prints. The first four rows hold
// the policy fixed at max-frequency to isolate the balancer; the last
// three hold the balancer fixed at join-shortest-queue to isolate the
// policy.
func runServe(ctx context.Context, p Params, env Env) error {
	out := env.out()
	fmt.Fprintln(out, "== Request serving: closed-loop DES over a diurnal day (web-search) ==")
	cfg, e, peak, err := governorConfig(ctx, p, env)
	if err != nil {
		return err
	}
	// The same diurnal day the governor experiment replays open-loop,
	// compressed to one-second epochs so the DES serves it request by
	// request in reasonable time; rates and epoch count are untouched.
	trace := governor.DiurnalTrace(96, peak, 0.15, 0.04, 1.3, rng.New(p.Seed)).WithStep(time.Second)
	return ServeReport(ctx, env, ServeShape{
		Clusters:        e.Platform.Clusters,
		CoresPerCluster: e.Platform.CoresPerCl,
		Warmup:          5 * time.Second,
	}, cfg, trace, p.Seed)
}

// ServeShape is the fleet geometry a serve scenario runs on.
type ServeShape struct {
	Clusters        int
	CoresPerCluster int
	Warmup          time.Duration
}

// serveScenario pairs a policy with a balancer constructor (balancers may
// be stateful, so each Sim gets a fresh instance).
type serveScenario struct {
	policy   serve.Policy
	balancer func() serve.Balancer
}

// serveScenarios is the comparison grid: a balancer shoot-out under the
// max-frequency baseline, then the governor policies on the best
// balancer.
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

// ServeReport runs every scenario over the trace and prints the measured
// comparison table to env.Out, recording into env's Obs, Tracer and
// Telemetry hooks. Scenarios are independent simulations, so they fan out
// under the env.Jobs budget; each derives its randomness from its
// index, keeping the output byte-identical for any worker count (see
// TestServeReportAcrossJobs). Exported because the serve determinism and
// telemetry gates drive it directly with synthetic configurations.
func ServeReport(ctx context.Context, env Env, shape ServeShape, cfg *governor.Config,
	trace governor.LoadTrace, seed uint64) error {
	scenarios := serveScenarios(cfg)
	root := rng.New(seed).Derive("serve-cmd")
	results, err := parallel.Map(ctx, len(scenarios), env.Jobs,
		func(ctx context.Context, i int) (serve.Result, error) {
			sc := scenarios[i]
			bal := sc.balancer()
			sim, err := serve.New(serve.Config{
				Gov:             cfg,
				Policy:          sc.policy,
				Balancer:        bal,
				Clusters:        shape.Clusters,
				CoresPerCluster: shape.CoresPerCluster,
				Trace:           trace,
				Warmup:          shape.Warmup,
				Metrics:         env.Obs,
				Tracer:          env.Tracer,
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
	w := env.tbl()
	fmt.Fprintln(w, "policy\tbalancer\tserved\tp50_ms\tp95_ms\tp99_ms\tp99.9_ms\tviolations\tdrops\tenergy_kJ\tavg_W")
	for _, r := range results {
		fmt.Fprintf(w, "%s\t%s\t%d\t%.1f\t%.1f\t%.1f\t%.1f\t%d\t%d\t%.2f\t%.1f\n",
			r.Policy, r.Balancer, r.Served,
			ms(r.P50), ms(r.P95), ms(r.P99), ms(r.P999),
			r.Violations, r.Dropped, r.EnergyJ/1e3, r.AvgPowerW)
	}
	return w.Flush()
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
