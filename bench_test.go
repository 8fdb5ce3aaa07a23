// Root benchmarks: the sweep engine's worker fan-out, the observability
// overhead gates and the hot-path kernels.
//
//	make bench-sweep   BenchmarkSweepParallel, BenchmarkSweepManyParallel
//	make bench-obs     BenchmarkObsOverhead, BenchmarkObsOverheadSampler
//	                   (both fail above the 2% overhead budget; the
//	                   sampler at -benchtime 40x, so its median has
//	                   40 rounds)
//
// BenchmarkServeSteadyState, BenchmarkClusterAccess and
// BenchmarkGeneratorNext time the serve DES event loop, the cluster
// memory-access kernel and the synthetic instruction stream in isolation. The paper's
// numbers are pinned by the cmd/ntcsim goldens, and end-to-end performance
// is measured by cmd/ntcbench.
package ntcsim_test

import (
	"context"
	"fmt"
	"sort"
	"testing"
	"time"

	"ntcsim/internal/core"
	"ntcsim/internal/governor"
	"ntcsim/internal/obs/timeseries"
	"ntcsim/internal/platform"
	"ntcsim/internal/qos"
	"ntcsim/internal/rng"
	"ntcsim/internal/serve"
	"ntcsim/internal/sim"
	"ntcsim/internal/workload"
)

// benchExplorer builds a reduced-cost explorer.
func benchExplorer(b *testing.B) *core.Explorer {
	b.Helper()
	e := core.NewExplorer()
	e.WarmInstr = 800_000
	e.SettleCycles = 10_000
	return e
}

// BenchmarkSweepParallel measures the parallel sweep engine at different
// worker counts over an 8-point grid. Output is bit-identical at every
// worker count (see internal/core/parallel_test.go), so this isolates the
// wall-clock effect: on a multi-core host jobs=4 should finish the grid
// at least ~2x faster than jobs=1; on a single-core host the sub-benchmarks
// converge instead of regressing.
func BenchmarkSweepParallel(b *testing.B) {
	grid := []float64{0.1e9, 0.2e9, 0.3e9, 0.5e9, 0.7e9, 1.0e9, 1.5e9, 2.0e9}
	for _, jobs := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e := benchExplorer(b)
				e.Jobs = jobs
				sw, err := e.Sweep(context.Background(), workload.WebSearch(), grid)
				if err != nil {
					b.Fatal(err)
				}
				if len(sw.Points) != len(grid) {
					b.Fatal("short sweep")
				}
			}
			b.ReportMetric(float64(len(grid))*float64(b.N)/b.Elapsed().Seconds(), "points/s")
		})
	}
}

// BenchmarkSweepManyParallel measures the workload-level fan-out: all six
// scale-out + VM workloads swept over a small grid, serial vs parallel.
func BenchmarkSweepManyParallel(b *testing.B) {
	grid := []float64{0.3e9, 1.0e9, 2.0e9}
	for _, jobs := range []int{1, 4} {
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e := benchExplorer(b)
				e.Jobs = jobs
				if _, err := e.SweepMany(context.Background(), workload.All(), grid); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkObsOverhead quantifies the observability layer's
// disabled-path cost: the instrumented-but-disabled hot loop (the nil
// checks the obs layer added to cpu.load and dram.Submit) against the
// same loop with instrumentation enabled. The disabled path IS the seed
// hot path — goldens prove byte-for-byte output equality — so
// `disabled-ns/kcycle` is the number to compare against pre-obs baselines,
// and `enabled-overhead-pct` documents what turning everything on costs.
// The acceptance bound is <2% for the disabled path; the alternating
// rounds share one cluster pair so allocator and cache effects cancel.
func BenchmarkObsOverhead(b *testing.B) {
	const runCycles = 20_000
	mk := func(enable bool) *sim.Cluster {
		cl, err := sim.NewCluster(sim.DefaultConfig(), workload.WebSearch(), 2e9)
		if err != nil {
			b.Fatal(err)
		}
		if enable {
			cl.EnableObs()
		}
		cl.FastForward(400_000)
		cl.Run(10_000)
		return cl
	}
	disabled := mk(false)
	enabled := mk(true)
	var disabledNs, enabledNs time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		disabled.Run(runCycles)
		t1 := time.Now()
		enabled.Run(runCycles)
		t2 := time.Now()
		disabledNs += t1.Sub(t0)
		enabledNs += t2.Sub(t1)
	}
	b.StopTimer()
	kcycles := float64(runCycles) / 1e3 * float64(b.N)
	b.ReportMetric(float64(disabledNs)/kcycles, "disabled-ns/kcycle")
	b.ReportMetric(float64(enabledNs)/kcycles, "enabled-ns/kcycle")
	overhead := 100 * (float64(enabledNs)/float64(disabledNs) - 1)
	b.ReportMetric(overhead, "enabled-overhead-pct")
	// The <2% acceptance bound applies to the fully-enabled hot loop (the
	// disabled path is the seed path by construction). Only meaningful
	// once enough rounds ran to average out scheduler noise.
	if b.N >= 10 && overhead > 2.0 {
		b.Errorf("enabled observability overhead %.2f%% exceeds the 2%% budget", overhead)
	}
}

// BenchmarkObsOverheadSampler quantifies the telemetry sampler's cost on
// the serving DES: the same diurnal run with the Telemetry hook nil
// (the ledger accumulates, no sample is recorded) against one recording
// into a live Series. Recording is per-epoch work amortized over
// thousands of request events, so the enabled path must stay inside the
// same <2% budget the metrics layer honors; `make bench-obs` runs both
// gates, this one at -benchtime 40x: at the default benchtime only about
// ten rounds fit, too few for a median to settle under the budget.
func BenchmarkObsOverheadSampler(b *testing.B) {
	gov := benchServeGov(b, 2, 4)
	// A long horizon keeps each timed run ~100ms so millisecond-scale
	// scheduler noise stays well under the 2% resolution the gate needs.
	tr := governor.LoadTrace{Step: time.Second, Lambda: make([]float64, 240)}
	for i := range tr.Lambda {
		tr.Lambda[i] = 300
	}
	runOnce := func(tel *timeseries.Series) time.Duration {
		s, err := serve.New(serve.Config{
			Gov:       gov,
			Policy:    serve.Tracking{},
			Balancer:  serve.NewJSQ(),
			Trace:     tr,
			Warmup:    2 * time.Second,
			Telemetry: tel,
		}, rng.New(42))
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		t0 := time.Now()
		if _, err := s.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
		return time.Since(t0)
	}
	// Scheduler and frequency noise on a shared host dwarfs the per-run
	// signal, so each round times a back-to-back disabled/enabled pair
	// (drift within a round cancels) and the gate takes the MEDIAN of the
	// per-round ratios — single inflated rounds cannot move it.
	ratios := make([]float64, 0, b.N)
	var disabledNs, enabledNs time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := runOnce(nil)
		e := runOnce(timeseries.NewSampler().Series("bench"))
		disabledNs += d
		enabledNs += e
		ratios = append(ratios, float64(e)/float64(d))
	}
	b.StopTimer()
	sort.Float64s(ratios)
	median := ratios[len(ratios)/2]
	b.ReportMetric(float64(disabledNs)/float64(b.N), "disabled-ns/run")
	b.ReportMetric(float64(enabledNs)/float64(b.N), "enabled-ns/run")
	overhead := 100 * (median - 1)
	b.ReportMetric(overhead, "enabled-overhead-pct")
	if b.N >= 10 && overhead > 2.0 {
		b.Errorf("telemetry sampler overhead %.2f%% exceeds the 2%% budget", overhead)
	}
}

// benchServeGov builds the governor configuration the serving-DES
// benchmarks share: a five-point performance curve and a tail model over
// a fleet of clusters x perCluster cores.
func benchServeGov(b *testing.B, clusters, perCluster int) *governor.Config {
	b.Helper()
	spec := platform.Default()
	spec.Clusters = clusters
	spec.Cluster.CoresPerCluster = perCluster
	curve, err := governor.NewPerfCurve([]governor.PerfPoint{
		{FreqHz: 0.2e9, UIPS: 4e9}, {FreqHz: 0.5e9, UIPS: 9e9},
		{FreqHz: 1.0e9, UIPS: 16e9}, {FreqHz: 1.5e9, UIPS: 21e9},
		{FreqHz: 2.0e9, UIPS: 25e9},
	})
	if err != nil {
		b.Fatal(err)
	}
	return &governor.Config{
		Platform:     spec,
		Curve:        curve,
		Tail:         qos.NewTailModel(clusters*perCluster, 50*time.Millisecond, 25e9),
		QoSLimit:     200 * time.Millisecond,
		Standing:     platform.ServerPower{IOW: 23, DRAMW: 15},
		MemDynPerReq: 1e-3,
		Margin:       0.85,
	}
}

// BenchmarkServeSteadyState measures the DES event loop's steady-state
// throughput: a constant-rate day served by a 4x4 fleet with no metrics,
// tracer or telemetry attached, so the timed region is exactly the event
// loop (arrival dispatch, heap scheduling, departure completion, epoch
// close). `events/s` is the headline number; the alloc gates for this
// path live in internal/serve/alloc_test.go.
func BenchmarkServeSteadyState(b *testing.B) {
	gov := benchServeGov(b, 4, 4)
	tr := governor.LoadTrace{Step: time.Second, Lambda: make([]float64, 60)}
	for i := range tr.Lambda {
		tr.Lambda[i] = 600
	}
	for _, bal := range []func() serve.Balancer{serve.NewJSQ, serve.NewRandom} {
		name := bal().Name()
		b.Run("balancer="+name, func(b *testing.B) {
			var events uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, err := serve.New(serve.Config{
					Gov:      gov,
					Policy:   serve.Tracking{},
					Balancer: bal(),
					Trace:    tr,
				}, rng.New(42))
				if err != nil {
					b.Fatal(err)
				}
				res, err := s.Run(context.Background())
				s.Close()
				if err != nil {
					b.Fatal(err)
				}
				if res.Served == 0 {
					b.Fatal("no requests served")
				}
				events += res.Arrivals + res.Served + res.Dropped + uint64(len(tr.Lambda))
			}
			b.StopTimer()
			b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
		})
	}
}

// BenchmarkClusterAccess measures the full-system memory access kernel —
// the path every L1 miss takes through bank selection, the crossbar, the
// LLC bank and (on LLC misses) DRAM — over a deterministic LCG address
// stream against a warmed cluster. The sweep engine's inner loop is
// dominated by exactly this path.
func BenchmarkClusterAccess(b *testing.B) {
	cl, err := sim.NewCluster(sim.DefaultConfig(), workload.WebSearch(), 2e9)
	if err != nil {
		b.Fatal(err)
	}
	cl.FastForward(400_000)
	var addr uint64 = 0x5eed
	nowNs := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr = addr*2862933555777941757 + 3037000493
		nowNs += 2.0
		cl.Access(0, addr&((1<<30)-1), i&7 == 0, nowNs)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "accesses/s")
}

// BenchmarkGeneratorNext measures the workload generator's per-instruction
// cost (mix, dependency, branch, address and PC draws) for each scale-out
// profile, the instruction stream every simulated core consumes: detailed
// simulation's Next, and under warm/ functional warming's NextWarm with
// the dependency draws skipped in one SkipDeps. One op is one
// instruction, so ns/op is ns per instruction.
func BenchmarkGeneratorNext(b *testing.B) {
	for _, p := range workload.ScaleOutProfiles() {
		b.Run(p.Name, func(b *testing.B) {
			g := workload.NewGenerator(workload.NewPlan(p, 0, rng.New(1)))
			var in workload.Instr
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.Next(&in)
			}
		})
	}
	for _, p := range workload.ScaleOutProfiles() {
		b.Run("warm/"+p.Name, func(b *testing.B) {
			g := workload.NewGenerator(workload.NewPlan(p, 0, rng.New(1)))
			var in workload.Instr
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.NextWarm(&in)
			}
			g.SkipDeps(uint64(b.N))
		})
	}
}
