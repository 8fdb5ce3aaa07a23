// Package core is the near-threshold server design-space explorer — the
// paper's primary contribution (Sec. V). It drives the full-system cluster
// simulator across the core DVFS range, resolves each frequency to a
// zero-bias FD-SOI operating point, attaches the platform power models at the paper's three scopes
// (cores / SoC / server), evaluates QoS feasibility, and locates the
// optimal-efficiency operating points:
//
//   - cores-only efficiency is maximized at the lowest functional
//     voltage/frequency point (Figs. 3a, 4a);
//   - SoC efficiency peaks near 1GHz because the uncore does not scale
//     with core DVFS (Figs. 3b, 4b);
//   - server efficiency peaks near 1-1.2GHz because DRAM background power
//     is constant (Figs. 3c, 4c);
//
// all while scale-out tail-latency QoS holds down to 200-500MHz (Fig. 2)
// and virtualized workloads stay within their 2x/4x degradation bounds.
package core

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"time"

	"ntcsim/internal/obs"
	"ntcsim/internal/obs/timeseries"
	"ntcsim/internal/parallel"
	"ntcsim/internal/platform"
	"ntcsim/internal/qos"
	"ntcsim/internal/rng"
	"ntcsim/internal/sampling"
	"ntcsim/internal/sim"
	"ntcsim/internal/tech"
	"ntcsim/internal/workload"
)

// LoadActivity is the core activity factor during load: the paper
// evaluates worst-case, fully loaded servers.
const LoadActivity = 1.0

// Seams are the Explorer's result-neutral inputs: execution budget, the
// sweep memo and observability hooks. None of them changes a sweep's
// numbers (results are bit-identical for every Jobs, with or without a
// memo, with or without hooks), which is why experiments.Key excludes
// exactly this struct. Every field is optional and nil-gated.
type Seams struct {
	// Jobs bounds how many sweep points (and, in SweepMany, workloads)
	// evaluate concurrently; <= 0 means GOMAXPROCS. Every point runs from
	// the same warmed checkpoint under its own RNG substream split by point
	// index, so results are bit-identical for every Jobs setting.
	Jobs int

	// Obs, when set, enables the observability layer: per-layer counters
	// are harvested into the registry at each point's completion, and the
	// worker pool reports queue-wait/busy timings. Counter-class metrics
	// stay bit-identical for every Jobs setting; leaving Obs nil keeps the
	// sweep on the uninstrumented fast path.
	Obs *obs.Registry
	// Tracer, when set, records Chrome-trace spans for warmup, baseline,
	// each sweep point and its sampling phases.
	Tracer *obs.Tracer
	// Progress, when set, reports one line per completed sweep point.
	Progress *obs.Progress
	// Memo, when set, answers a sweep whose inputs match an earlier one
	// from that sweep's stored result instead of recomputing it (see
	// SweepMemo). A hit replays everything a recomputation would produce
	// for the other seams: the counter-class metrics into Obs, the
	// telemetry samples, the progress lines. Frontends share one memo
	// per process; nil computes every sweep.
	Memo *SweepMemo
	// Telemetry, when set, records one chip-scope energy-ledger sample per
	// sweep point under the series "<TelemetryPrefix>sweep/<workload>"
	// (1-second pseudo-horizon per point: a sweep has no time axis, so
	// each point's steady-state watts are booked as joules-per-second).
	// Samples are buffered per point and recorded in ascending-frequency
	// order after the parallel fan-out, keeping output byte-identical for
	// every Jobs setting.
	Telemetry *timeseries.Sampler
}

// Explorer runs design-space sweeps on one platform. Construct it with
// NewExplorer and configure it by assigning fields.
type Explorer struct {
	Seams

	Platform *platform.Spec
	// SamplingFor returns the SMARTS configuration per workload.
	SamplingFor func(p *workload.Profile) sampling.Config
	// WarmInstr is the per-core functional warmup before the first sample
	// (cache/predictor state; the paper launches from warmed checkpoints).
	WarmInstr uint64
	// SettleCycles are run after each DVFS transition before sampling.
	SettleCycles int64
	// TelemetryPrefix disambiguates series when several explorers sweep
	// the same workload names in one run (e.g. the ablation's LPDDR4 and
	// 8-core variants).
	TelemetryPrefix string
}

// NewExplorer returns an explorer for the paper's default platform with
// the reduced-cost sampling configuration (PaperFidelity switches to the
// full SMARTS windows) and every seam unset.
func NewExplorer() *Explorer {
	return &Explorer{
		Platform:     platform.Default(),
		SamplingFor:  func(*workload.Profile) sampling.Config { return sampling.QuickConfig() },
		WarmInstr:    2_000_000,
		SettleCycles: 20_000,
	}
}

// PaperFidelity switches the explorer to the paper's full sampling windows
// (100K/50K cycles, 2M/400K for Data Serving, 95%/2% termination) and a
// longer initial warmup. Sweeps take correspondingly longer.
func (e *Explorer) PaperFidelity() {
	e.SamplingFor = sampling.PaperConfig
	e.WarmInstr = 8_000_000
	e.SettleCycles = 100_000
}

// Point is one evaluated operating point of a sweep.
type Point struct {
	FreqHz float64
	Op     tech.OperatingPoint

	// UIPSChip is chip-level user instructions per second (clusters are
	// homogeneous; the simulated cluster is scaled by the cluster count,
	// mirroring the paper's methodology).
	UIPSChip float64
	Power    platform.ServerPower

	// Efficiencies in UIPS per watt at the three scopes (Figs. 3, 4).
	EffCores  float64
	EffSoC    float64
	EffServer float64

	// Metric is the QoS figure: normalized 99th-percentile latency for
	// scale-out workloads (Fig. 2), execution-time degradation for VMs.
	Metric float64
	QoSOK  bool

	Samples   int
	Converged bool
	RelErr    float64
}

// Sweep is a full frequency sweep of one workload.
type Sweep struct {
	Workload     *workload.Profile
	Requirement  qos.Requirement
	BaselineUIPS float64 // chip UIPS at the 2GHz baseline
	Points       []Point // ascending frequency
}

// Sweep runs the workload across the given core frequencies (Hz) and
// returns the evaluated points in ascending frequency order. A sweep
// whose ctx is already cancelled returns its cause before warming; a ctx
// cancelled later stops the sweep between points (a point mid-simulation
// runs to completion).
//
// Execution model: the cluster is warmed once at the 2GHz baseline and the
// baseline throughput is sampled; the resulting warmed state is captured as
// an in-memory checkpoint, the common launch state for every operating
// point. Each point then restores its own private cluster from that
// checkpoint, reseeds the workload generators with the substream split by
// point index (rng.Stream.Split), applies the DVFS transition, runs the
// settle window and samples. Because a point's result is a pure function of
// (checkpoint, frequency, point index), points evaluate concurrently — up
// to Jobs workers — with output bit-identical to the serial loop.
func (e *Explorer) Sweep(ctx context.Context, p *workload.Profile, freqsHz []float64) (*Sweep, error) {
	if len(freqsHz) == 0 {
		return nil, fmt.Errorf("core: empty frequency list")
	}
	freqs := append([]float64(nil), freqsHz...)
	sort.Float64s(freqs)
	for _, f := range freqs {
		if f <= 0 {
			return nil, fmt.Errorf("core: non-positive frequency %v", f)
		}
	}
	// A memo hit fails on a cancelled ctx exactly as a computation does,
	// and neither pays for warming first.
	if ctx.Err() != nil {
		return nil, context.Cause(ctx)
	}
	cfg := e.SamplingFor(p)
	var (
		hash      uint64
		key       []byte
		cacheable bool
	)
	if e.Memo != nil {
		keyCfg := cfg
		keyCfg.Phase = nil // observational only
		if hash, key, cacheable = e.sweepKey(p, keyCfg, freqs); cacheable {
			if en := e.Memo.lookup(hash, key, e.Obs != nil); en != nil {
				return e.replay(p, freqs, en)
			}
		}
	}
	// The sweep harvests into a private registry so that a memo entry can
	// store exactly this sweep's counter-class metrics. They reach Obs
	// through the same Merge a hit uses, also when the sweep fails
	// part-way (the completed points' counters are valid data).
	var (
		reg     *obs.Registry
		metrics *obs.Snapshot
	)
	if e.Obs != nil {
		reg = obs.NewRegistry()
	}
	sw, samples, err := e.sweep(ctx, p, freqs, cfg, reg)
	if reg != nil {
		snap := reg.Snapshot().Deterministic()
		metrics = &snap
		if merr := e.Obs.Merge(snap); merr != nil && err == nil {
			err = merr
		}
	}
	if err != nil {
		return nil, err
	}
	if cacheable {
		e.Memo.store(&memoEntry{hash: hash, key: key, baselineUIPS: sw.BaselineUIPS,
			points: slices.Clone(sw.Points), metrics: metrics, samples: samples})
	}
	e.recordTelemetry(p, sw.Points, samples)
	return sw, nil
}

// replay answers a sweep from a memo entry exactly as a recomputation
// would look to the caller: fresh points, the stored counter-class
// metrics merged into Obs, the stored telemetry under the caller's
// series name, and the progress lines. Pool timings and per-point trace
// spans have no stored counterpart; one "memo hit" span stands in.
func (e *Explorer) replay(p *workload.Profile, freqs []float64, en *memoEntry) (*Sweep, error) {
	start := time.Now() //ntclint:allow wallclock trace/progress timestamps only; never reaches results
	lane := e.Tracer.AcquireLane()
	defer e.Tracer.ReleaseLane(lane)
	sw := &Sweep{
		Workload:     p,
		Requirement:  qos.NewRequirement(p),
		BaselineUIPS: en.baselineUIPS,
		Points:       slices.Clone(en.points),
	}
	if en.metrics != nil {
		if err := e.Obs.Merge(*en.metrics); err != nil {
			return nil, err
		}
	}
	e.recordTelemetry(p, sw.Points, en.samples)
	e.Progress.Add(len(freqs))
	for _, f := range freqs {
		e.Progress.Done(pointLabel(p, f), time.Since(start)) //ntclint:allow wallclock progress duration only; never reaches results
	}
	//ntclint:allow wallclock trace span duration only; never reaches results
	e.Tracer.Complete("sweep", "memo hit "+p.Name, lane, start, time.Since(start), nil)
	return sw, nil
}

// recordTelemetry records a sweep's per-point samples under its series
// and reports the sweep's total for the conservation audit. It runs
// after the fan-out barrier, in point order, so output is byte-identical
// for every Jobs setting.
func (e *Explorer) recordTelemetry(p *workload.Profile, points []Point, samples []timeseries.Sample) {
	if e.Telemetry == nil {
		return
	}
	tel := e.Telemetry.Series(e.TelemetryPrefix + "sweep/" + p.Name)
	var totalJ float64
	for i := range samples {
		tel.Record(samples[i])
		// Sequential by construction: this loop runs after the fan-out
		// barrier, in fixed point order, so the sum is order-stable.
		//ntclint:allow floatorder post-barrier sequential loop in fixed index order
		totalJ += points[i].Power.TotalW() // × 1s pseudo-horizon
	}
	tel.ReportTotal(totalJ)
}

// sweep computes a sweep (the execution model is described on Sweep),
// harvesting per-point metrics into reg when it is non-nil, and returns
// it with its per-point telemetry samples.
func (e *Explorer) sweep(ctx context.Context, p *workload.Profile, freqs []float64, cfg sampling.Config,
	reg *obs.Registry) (*Sweep, []timeseries.Sample, error) {
	// The sweep's own trace lane carries the serial prelude (warmup,
	// baseline); each point acquires a lane of its own below.
	swLane := e.Tracer.AcquireLane()
	defer e.Tracer.ReleaseLane(swLane)

	warmStart := time.Now() //ntclint:allow wallclock trace span timestamps only; never reaches results
	cl, err := e.warmedCluster(p)
	if err != nil {
		return nil, nil, err
	}
	//ntclint:allow wallclock trace span duration only; never reaches results
	e.Tracer.Complete("sweep", "warm "+p.Name, swLane, warmStart, time.Since(warmStart), nil)

	baseStart := time.Now() //ntclint:allow wallclock trace span timestamps only; never reaches results
	baseRes, err := sampling.Run(cl, cfg)
	if err != nil {
		return nil, nil, err
	}
	//ntclint:allow wallclock trace span duration only; never reaches results
	e.Tracer.Complete("sweep", "baseline "+p.Name, swLane, baseStart, time.Since(baseStart), nil)
	clusters := float64(e.Platform.Clusters)
	sw := &Sweep{
		Workload:     p,
		Requirement:  qos.NewRequirement(p),
		BaselineUIPS: baseRes.MeanUIPS() * clusters,
	}

	// The common launch state: warmed microarchitecture after the baseline
	// measurement. Restores only read the checkpoint, so one copy serves
	// all workers.
	ck := cl.Checkpoint()
	root := rng.New(e.Platform.Cluster.Seed).Derive("sweep/" + p.Name)

	e.Progress.Add(len(freqs))
	if e.Obs != nil {
		ctx = parallel.WithObserver(ctx, obs.PoolObserver(e.Obs, "sweep"))
	}
	points := make([]Point, len(freqs))
	samples := make([]timeseries.Sample, len(freqs)) // per-point telemetry, buffered for ordered recording
	err = parallel.ForEach(ctx, len(freqs), e.Jobs, func(_ context.Context, i int) error {
		return e.runPoint(p, sw, cfg, ck, root, freqs, points, samples, reg, i)
	})
	if err != nil {
		return nil, nil, err
	}
	sw.Points = points
	return sw, samples, nil
}

// warmedCluster builds a cluster for p at the 2GHz baseline frequency and
// warms it: WarmInstr functional instructions per core, then SettleCycles
// of detailed simulation (the paper launches every measurement from a
// warmed checkpoint, Sec. IV).
func (e *Explorer) warmedCluster(p *workload.Profile) (*sim.Cluster, error) {
	cl, err := sim.NewCluster(e.Platform.Cluster, p, qos.BaselineFreqHz)
	if err != nil {
		return nil, err
	}
	cl.FastForward(e.WarmInstr)
	cl.Run(e.SettleCycles)
	return cl, nil
}

// pointLabel names one sweep point in trace spans and progress lines.
func pointLabel(p *workload.Profile, freqHz float64) string {
	return fmt.Sprintf("%s @ %.0fMHz", p.Name, freqHz/1e6)
}

// runPoint evaluates one sweep point. Writes are confined to points[i];
// side effects (obs harvest, trace span, progress line) happen only after
// the point has fully succeeded.
func (e *Explorer) runPoint(p *workload.Profile, sw *Sweep, cfg sampling.Config,
	ck *sim.Checkpoint, root *rng.Stream, freqs []float64, points []Point,
	samples []timeseries.Sample, reg *obs.Registry, i int) error {
	label := pointLabel(p, freqs[i])
	lane := e.Tracer.AcquireLane()
	defer e.Tracer.ReleaseLane(lane)
	ptStart := time.Now() //ntclint:allow wallclock trace/progress timestamps only; never reaches results

	pcl, err := sim.RestoreCluster(ck)
	if err != nil {
		return err
	}
	pcl.Reseed(root.Split(uint64(i)))
	if reg != nil {
		pcl.EnableObs()
	}
	pcl.SetFrequency(freqs[i])
	pcl.Run(e.SettleCycles)
	pcfg := cfg
	if e.Tracer != nil {
		pcfg.Phase = func(phase string, sample int, start time.Time, d time.Duration) {
			e.Tracer.Complete("sample", phase, lane, start, d,
				map[string]any{"sample": sample, "point": label})
		}
	}
	res, err := sampling.Run(pcl, pcfg)
	if err != nil {
		return err
	}
	pt, err := e.evaluate(p, sw, freqs[i], res)
	if err != nil {
		return err
	}
	points[i] = pt
	samples[i] = e.telemetrySample(pt, res, i)
	if reg != nil {
		// Harvest exactly once per point cluster: the layer counters
		// are cumulative since EnableObs.
		pcl.HarvestObs(reg)
		harvestResult(reg, p, freqs[i], res, pt)
	}
	d := time.Since(ptStart) //ntclint:allow wallclock trace/progress duration only; never reaches results
	e.Tracer.Complete("point", label, lane, ptStart, d,
		map[string]any{"freq_hz": freqs[i], "samples": len(res.Samples)})
	e.Progress.Done(label, d)
	return nil
}

// SweepMany sweeps each profile over the same frequency grid, fanning the
// workloads (and each workload's points) across the Jobs worker budget.
// Results are returned in profile order and are bit-identical for any Jobs
// setting. A cancelled ctx stops every workload's sweep between points
// (points mid-simulation run to completion, so results that were produced
// are valid).
func (e *Explorer) SweepMany(ctx context.Context, profiles []*workload.Profile, freqsHz []float64) ([]*Sweep, error) {
	sweeps := make([]*Sweep, len(profiles))
	err := parallel.ForEach(ctx, len(profiles), e.Jobs,
		func(ctx context.Context, i int) error {
			sw, err := e.Sweep(ctx, profiles[i], freqsHz)
			if err != nil {
				return fmt.Errorf("%s: %w", profiles[i].Name, err)
			}
			sweeps[i] = sw
			return nil
		})
	if err != nil {
		return nil, err
	}
	return sweeps, nil
}

// evaluate attaches operating point, power and QoS to one sampled result.
func (e *Explorer) evaluate(p *workload.Profile, sw *Sweep, f float64, res sampling.Result) (Point, error) {
	spec := e.Platform
	op, err := spec.Tech.OperatingPointFor(f, 0)
	if err != nil {
		return Point{}, fmt.Errorf("core: %.0f MHz: %w", f/1e6, err)
	}

	clusters := float64(spec.Clusters)
	uipsChip := res.MeanUIPS() * clusters

	// Per-cluster uncore activity rates come straight from the simulation;
	// memory bandwidth is aggregated across clusters.
	pw := platform.ServerPower{
		CoresW:  spec.CorePowerW(op, LoadActivity),
		UncoreW: spec.UncorePowerW(res.Total.LLCReadRate(), res.Total.LLCWriteRate(), res.Total.LLCAccessRate()),
		MemoryW: spec.MemoryPowerW(res.Total.ReadBandwidth()*clusters, res.Total.WriteBandwidth()*clusters),
	}

	pt := Point{
		FreqHz:    f,
		Op:        op,
		UIPSChip:  uipsChip,
		Power:     pw,
		Samples:   len(res.Samples),
		Converged: res.Converged,
		RelErr:    res.RelErr(0.95),
	}
	if pw.CoresW > 0 {
		pt.EffCores = uipsChip / pw.CoresW
	}
	if pw.SoCW() > 0 {
		pt.EffSoC = uipsChip / pw.SoCW()
	}
	if pw.TotalW() > 0 {
		pt.EffServer = uipsChip / pw.TotalW()
	}
	pt.Metric = sw.Requirement.Metric(sw.BaselineUIPS, uipsChip)
	pt.QoSOK = sw.Requirement.Satisfied(sw.BaselineUIPS, uipsChip)
	return pt, nil
}

// telemetrySample books one sweep point's steady-state watts as an energy
// ledger over a 1-second pseudo-horizon (a sweep has no time axis). Core
// dynamic power comes from the model; core leakage is the RESIDUAL
// CoresW − dynamic, so the ledger sums to Power.TotalW() by construction.
func (e *Explorer) telemetrySample(pt Point, res sampling.Result, i int) timeseries.Sample {
	spec := e.Platform
	dynOne, _ := spec.Core.PowerParts(pt.Op, LoadActivity)
	coreDynW := float64(spec.TotalCores()) * dynOne
	coreLeakW := pt.Power.CoresW - coreDynW
	llcW, xbarW, ioW := spec.UncorePowerParts(
		res.Total.LLCReadRate(), res.Total.LLCWriteRate(), res.Total.LLCAccessRate())
	return timeseries.Sample{
		Epoch:   i,
		Cluster: -1, // chip scope: sweeps have no per-cluster view
		Start:   time.Second * time.Duration(i),
		Dur:     time.Second,
		Energy: timeseries.Ledger{
			CoreDynNJ:  timeseries.NJ(coreDynW),
			CoreLeakNJ: timeseries.NJ(coreLeakW),
			LLCNJ:      timeseries.NJ(llcW),
			XbarNJ:     timeseries.NJ(xbarW),
			IONJ:       timeseries.NJ(ioW),
			DRAMNJ:     timeseries.NJ(pt.Power.MemoryW),
		},
		FreqHz:   pt.FreqHz,
		VoltageV: pt.Op.Vdd,
		Util:     LoadActivity,
	}
}

// Optima summarizes a sweep the way the paper's Sec. V does.
type Optima struct {
	// MinFeasibleHz is the lowest swept frequency that still meets QoS
	// (Sec. V-A: 200-500MHz for scale-out apps).
	MinFeasibleHz float64
	// Best points per scope (Sec. V-B: cores at the voltage floor, SoC at
	// ~1GHz, server at ~1-1.2GHz).
	BestCores  Point
	BestSoC    Point
	BestServer Point
	// QoSBestServer is the most server-efficient point that also meets
	// QoS — the operating point the paper ultimately argues for.
	QoSBestServer Point
	HasFeasible   bool
}

// Optima scans the sweep for the optimal points.
func (s *Sweep) Optima() Optima {
	var o Optima
	for _, pt := range s.Points {
		if pt.EffCores > o.BestCores.EffCores {
			o.BestCores = pt
		}
		if pt.EffSoC > o.BestSoC.EffSoC {
			o.BestSoC = pt
		}
		if pt.EffServer > o.BestServer.EffServer {
			o.BestServer = pt
		}
		if pt.QoSOK {
			if !o.HasFeasible || pt.FreqHz < o.MinFeasibleHz {
				o.MinFeasibleHz = pt.FreqHz
				o.HasFeasible = true
			}
			if pt.EffServer > o.QoSBestServer.EffServer {
				o.QoSBestServer = pt
			}
		}
	}
	return o
}

// DefaultFrequencies returns the paper's sweep grid: 100MHz to 2GHz.
func DefaultFrequencies() []float64 {
	return []float64{
		0.1e9, 0.2e9, 0.3e9, 0.4e9, 0.5e9, 0.7e9,
		1.0e9, 1.2e9, 1.5e9, 1.75e9, 2.0e9,
	}
}
