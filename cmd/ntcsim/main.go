// Command ntcsim regenerates every table and figure of "Towards
// Near-Threshold Server Processors" (DATE 2016) from the simulation stack:
//
//	ntcsim fig1     technology voltage/power curves (Fig. 1)
//	ntcsim table1   DDR4 rank energy figures (Table I)
//	ntcsim fig2     normalized 99th-percentile latency vs frequency (Fig. 2)
//	ntcsim fig3     cores/SoC/server efficiency, scale-out apps (Fig. 3)
//	ntcsim fig4     cores/SoC/server efficiency, virtualized apps (Fig. 4)
//	ntcsim opt      QoS-feasible minimum frequencies and optimal points (Sec. V)
//	ntcsim ablation FD-SOI knobs, LPDDR4 what-if, cluster-size check (Sec. V-C)
//	ntcsim governor DVFS+FBB policies on the request-serving DES (Sec. V-C)
//	ntcsim serve    load balancers on the request-serving DES
//	ntcsim memory   DRAM traffic patterns on DDR4/LPDDR4
//	ntcsim all      everything above
//
// Every experiment is dispatched through the internal/experiments
// registry — the same uniform API the ntcsimd daemon serves over HTTP —
// so this command is a thin frontend: flags become experiments.Params
// and experiments.Env, nothing more. By default the reduced-cost
// sampling configuration is used; pass -fidelity=paper for the full
// SMARTS windows (much slower).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ntcsim/internal/core"
	"ntcsim/internal/experiments"
	"ntcsim/internal/obs"
	"ntcsim/internal/obs/timeseries"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ntcsim:", err)
		os.Exit(1)
	}
}

// run parses flags, installs the SIGINT/SIGTERM context and dispatches
// the command through the experiments registry. On interruption the
// sweep engine stops at the next point boundary; run still flushes the
// trace and metrics files (so a cancelled campaign leaves valid partial
// observability output, never a torn JSON document) and reports how many
// sweep points completed.
func run(args []string) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fs := flag.NewFlagSet("ntcsim", flag.ContinueOnError)
	fidelity := fs.String("fidelity", "quick", "sampling fidelity: quick or paper")
	seed := fs.Uint64("seed", experiments.DefaultSeed, "simulation seed")
	warm := fs.Uint64("warm", 0, "override the per-core functional warmup instruction count (0 = fidelity default)")
	settle := fs.Int64("settle", 0, "override the post-DVFS settle window in cycles (0 = fidelity default)")
	outPath := fs.String("out", "", "also write all output to this file")
	jobs := fs.Int("jobs", 0, "max concurrent sweep evaluations; 0 = all CPUs (output is identical for any value)")
	metricsPath := fs.String("metrics", "", "write a metrics snapshot (deterministic-ordered JSON) to this file")
	tracePath := fs.String("trace", "", "write a Chrome trace-viewer JSON (chrome://tracing, Perfetto) to this file")
	telemetryPath := fs.String("telemetry", "", "write the per-epoch energy-attribution ledger (CSV) to this file")
	progress := fs.Bool("progress", false, "live per-point progress with ETA on stderr")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof and expvar on this address (e.g. localhost:6060)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = obs.NewSyncWriter(io.MultiWriter(os.Stdout, f))
	}
	if fs.NArg() < 1 {
		fs.Usage()
		return fmt.Errorf("missing command (report|%s)", names())
	}

	var registry *obs.Registry
	if *metricsPath != "" || *pprofAddr != "" {
		registry = obs.NewRegistry()
	}
	// Telemetry is nil-gated exactly like the registry: with no -telemetry
	// flag the sampler stays nil and every producer runs its seed path.
	var sampler *timeseries.Sampler
	if *telemetryPath != "" {
		sampler = timeseries.NewSampler()
	}
	var tracer *obs.Tracer
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			return err
		}
		defer f.Close()
		tracer = obs.NewTracer(f)
	}
	// Always counting (nil writer = silent), so an interrupted run can
	// report which points completed even without -progress.
	prog := obs.NewProgress(nil)
	if *progress {
		prog = obs.NewProgress(os.Stderr)
	}
	if *pprofAddr != "" {
		if _, err := startPprof(*pprofAddr, registry, sampler); err != nil {
			return err
		}
	}

	// The CLI's flags are exactly the experiment API's inputs: Params
	// (the simulation inputs keyed into the daemon's result cache) and
	// Env (the seams — writers, budgets, observability).
	params := experiments.Params{
		Fidelity:     *fidelity,
		Seed:         *seed,
		WarmInstr:    *warm,
		SettleCycles: *settle,
	}
	env := experiments.Env{Out: out, Seams: core.Seams{
		Jobs:      *jobs,
		Obs:       registry,
		Tracer:    tracer,
		Progress:  prog,
		Telemetry: sampler,
		// One memo per process: experiments that sweep the same inputs
		// (fig2, fig3 and opt; serve and governor) compute them once.
		Memo: core.NewSweepMemo(),
	}}

	cmd := fs.Arg(0)
	var cmdFn func(ctx context.Context) error
	switch {
	case cmd == "report":
		// report renders an existing telemetry CSV; it is frontend
		// functionality (no simulation), so it stays outside the registry.
		if fs.NArg() < 2 {
			return fmt.Errorf("report: usage: ntcsim report <telemetry.csv> (a file written by -telemetry)")
		}
		csvPath := fs.Arg(1)
		cmdFn = func(context.Context) error { return cmdReport(csvPath) }
	default:
		if _, ok := experiments.Lookup(cmd); !ok {
			return fmt.Errorf("unknown command %q (report|%s)", cmd, names())
		}
		cmdFn = func(ctx context.Context) error {
			_, err := experiments.Run(ctx, cmd, params, env)
			return err
		}
	}

	// The whole command runs inside one top-level trace span (lane 0), so
	// even sweep-free commands produce a non-empty trace.
	start := time.Now()
	cmdErr := cmdFn(ctx)
	// Telemetry counter lanes are buffered in the sampler and emitted
	// post-run in canonical order, so the "C" events are byte-identical
	// for any -jobs value even though live spans interleave.
	sampler.EmitTraceCounters(tracer)
	tracer.Complete("cmd", cmd, 0, start, time.Since(start), nil)
	// A trace that failed to write must fail the run, not vanish silently;
	// the command's own error still takes precedence.
	if err := tracer.Close(); err != nil && cmdErr == nil {
		cmdErr = err
	}
	interrupted := cmdErr != nil && errors.Is(cmdErr, context.Canceled)
	if *metricsPath != "" && (cmdErr == nil || interrupted) {
		// Metrics are flushed on success AND on interruption: a cancelled
		// campaign's completed points are valid, deterministic data.
		if err := writeMetrics(*metricsPath, registry); err != nil {
			if cmdErr == nil {
				cmdErr = err
			}
		}
	}
	if *telemetryPath != "" && (cmdErr == nil || interrupted) {
		// Telemetry follows the metrics rule: flushed on success and on
		// interruption. The CSV is written BEFORE the conservation audit
		// runs so a failing ledger is on disk for inspection.
		if err := writeTelemetry(*telemetryPath, sampler); err != nil {
			if cmdErr == nil {
				cmdErr = err
			}
		}
	}
	if cmdErr == nil {
		// The conservation audit fails the run on attribution bugs; an
		// interrupted run skips it (mid-epoch ledgers are legitimately
		// short of their reported totals).
		if err := sampler.Audit(0); err != nil {
			cmdErr = err
		}
	}
	if interrupted {
		done, total := prog.Completed()
		return fmt.Errorf("interrupted after %d/%d sweep points (completed results, trace and metrics flushed)",
			done, total)
	}
	return cmdErr
}

// names renders the registered experiment names for usage messages.
func names() string {
	s := ""
	for i, n := range experiments.Names() {
		if i > 0 {
			s += "|"
		}
		s += n
	}
	return s
}

// writeMetrics writes the registry snapshot to path. The JSON key order
// is deterministic, so counter-class sections diff cleanly across runs.
func writeMetrics(path string, r *obs.Registry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := r.WriteJSON(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// writeTelemetry writes the sampler's CSV dump to path. Output order is
// canonical (series sorted by name), so dumps diff cleanly across runs
// and worker counts.
func writeTelemetry(path string, s *timeseries.Sampler) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := s.WriteCSV(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// out is the destination of every report; -out tees it into a file. All
// experiment drivers — including those that fan work across goroutines —
// write through it via experiments.Env.Out, and it is wrapped in an
// ordered writer so concurrent writes can never interleave mid-line (see
// TestOutWriterNoInterleave).
var out io.Writer = obs.NewSyncWriter(os.Stdout)
