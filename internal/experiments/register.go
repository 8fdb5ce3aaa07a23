package experiments

import (
	"context"

	"ntcsim/internal/workload"
)

// allOrder is the historical "all" sequence — the order cmd/ntcsim has
// always printed the full report in.
var allOrder = []string{
	"fig1", "table1", "fig2", "fig3", "fig4", "opt", "ablation",
	"variation", "darksilicon", "governor", "serve", "interference",
	"scaling", "workloads", "prefetch", "ports", "hetero", "memory",
}

func init() {
	for _, s := range []Spec{
		{Name: "fig1", Title: "Figure 1: A57 voltage and chip power vs frequency", Run: runFig1},
		{Name: "table1", Title: "Table I: DDR4 rank energy figures", Run: runTable1},
		{Name: "fig2", Title: "Figure 2: normalized 99th-percentile latency vs frequency", Run: runFig2},
		{Name: "fig3", Title: "Figure 3: three-scope efficiency, scale-out workloads",
			Run: func(ctx context.Context, p Params, env Env) error {
				return runEfficiency(ctx, p, env, workload.ScaleOutProfiles(), "Figure 3 (scale-out workloads)")
			}},
		{Name: "fig4", Title: "Figure 4: three-scope efficiency, virtualized workloads",
			Run: func(ctx context.Context, p Params, env Env) error {
				return runEfficiency(ctx, p, env, workload.VMProfiles(), "Figure 4 (virtualized workloads)")
			}},
		{Name: "opt", Title: "Sec. V: QoS-feasible minimum frequencies and optima", Run: runOpt},
		{Name: "ablation", Title: "Sec. V-C ablations: FD-SOI knobs, LPDDR4, cluster size", Run: runAblation},
		{Name: "variation", Title: "Sec. II-A(4): NT variation and body-bias compensation", Run: runVariation},
		{Name: "darksilicon", Title: "Sec. V-B1: TDP and dark silicon across the DVFS range", Run: runDarkSilicon},
		{Name: "governor", Title: "Sec. V-C: DVFS governor policies on the serving DES over a diurnal day", Run: runGovernor},
		{Name: "serve", Title: "Request serving: load balancers on the serving DES over a diurnal day", Run: runServe},
		{Name: "interference", Title: "Sec. III-B1: co-scheduling interference", Run: runInterference},
		{Name: "scaling", Title: "Methodology check: per-cluster UIPC vs active clusters", Run: runScaling},
		{Name: "workloads", Title: "Workload characterization at 2GHz", Run: runWorkloads},
		{Name: "prefetch", Title: "Extension ablation: L1D stream prefetcher on/off", Run: runPrefetch},
		{Name: "ports", Title: "Extension ablation: unified issue vs A57-like ports", Run: runPorts},
		{Name: "hetero", Title: "Sec. V-C: heterogeneous per-cluster operation", Run: runHetero},
		{Name: "memory", Title: "Memory subsystem: traffic patterns on DDR4/LPDDR4", Run: runMemory},
		{Name: "all", Title: "Every report experiment in the historical order", Run: runAll},
	} {
		Register(s)
	}
}

// runAll runs every report-producing experiment in sequence on the same
// Params and Env, matching the historical `ntcsim all` output.
func runAll(ctx context.Context, p Params, env Env) error {
	return runSeq(ctx, p, env, allOrder)
}

// runSeq runs the named experiments in order on the same Params and Env.
// The diurnal-day views share one serve-grid memo (env.served), so the
// max-frequency / join-shortest-queue scenario that both governor and
// serve print runs once: its telemetry series, trace spans and energy
// gauges each get one writer.
func runSeq(ctx context.Context, p Params, env Env, names []string) error {
	env.served = serveRuns{}
	for _, name := range names {
		if err := ctx.Err(); err != nil {
			return context.Cause(ctx)
		}
		spec, ok := Lookup(name)
		if !ok {
			panic("experiments: all: unregistered experiment " + name)
		}
		if err := spec.Run(ctx, p, env); err != nil {
			return err
		}
	}
	return nil
}
