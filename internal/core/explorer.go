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
	// Jobs is the width of the worker pool; <= 0 means GOMAXPROCS. One
	// Sweep or SweepMany call simulates at most Jobs clusters at once: it
	// warms up to Jobs workloads at once, then, round by round, advances
	// up to Jobs live points at once and measures up to Jobs (workload,
	// point) samples at once. Sample k of a point depends only on its
	// workload's live point after k advances and its frequency, so
	// results are bit-identical for every Jobs setting.
	Jobs int

	// Obs, when set, receives the observability layer's metrics: each
	// measurement window's counters, which the simulator keeps whether or
	// not Obs is set, after the window, each point's gauges after the
	// walk, and the worker pool's queue-wait/busy timings. Counter-class
	// metrics stay bit-identical for every Jobs setting; leaving Obs nil
	// skips only the harvests.
	Obs *obs.Registry
	// Tracer, when set, records Chrome-trace spans for each workload's
	// warm-up ("sweep"), each advance of its live point
	// ("sample"/"fastforward"), and each sample task of a point ("point")
	// with its "sample"/"warmup" and "sample"/"measure" phases.
	Tracer *obs.Tracer
	// Progress, when set, reports one line per walked point, when it
	// takes its last sample: each sweep point, and each solo and mixed
	// point of an Interference call.
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
	// A sample is built from its point alone and recorded in
	// ascending-frequency order after the parallel fan-out, keeping
	// output byte-identical for every Jobs setting.
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
	// SettleCycles of detailed simulation settle a freshly warmed
	// cluster before its first sample.
	SettleCycles int64
	// TelemetryPrefix disambiguates series when several explorers sweep
	// the same workload names in one run (e.g. the ablation's LPDDR4 and
	// 8-core variants).
	TelemetryPrefix string

	// tapeLength sizes a core's tape, in instructions, from the ascending
	// instruction counts of its last sample tasks; nil is medianTape.
	// Tests force other lengths, which must not change any result.
	tapeLength func(used []uint64) int
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

	// Metric is the QoS figure against the sweep's 2GHz point (see
	// qos.Metric): normalized 99th-percentile latency for scale-out
	// workloads (Fig. 2), execution-time degradation for VMs.
	Metric float64
	QoSOK  bool

	// Samples is the number of measurement windows taken.
	Samples int
	// RelErr is the relative 95% confidence half-width of the point's
	// mean UIPC.
	RelErr float64
}

// Sweep is a full frequency sweep of one workload.
type Sweep struct {
	Workload *workload.Profile
	Points   []Point // ascending frequency, the 2GHz baseline among them
}

// BaselineUIPS returns the chip UIPS of the sweep's 2GHz point, the
// baseline every point's QoS metric is relative to.
func (s *Sweep) BaselineUIPS() float64 {
	i := slices.IndexFunc(s.Points, func(pt Point) bool { return pt.FreqHz == qos.BaselineFreqHz })
	return s.Points[i].UIPSChip
}

// setQoS sets every point's QoS metric and verdict against the sweep's
// 2GHz point.
func (s *Sweep) setQoS() {
	base := s.BaselineUIPS()
	for i := range s.Points {
		pt := &s.Points[i]
		pt.Metric = qos.Metric(s.Workload, base, pt.UIPSChip)
		pt.QoSOK = pt.Metric <= qos.Limit(s.Workload)
	}
}

// Sweep runs the workload across the given core frequencies (Hz) and
// returns the evaluated points in ascending frequency order. It is
// SweepMany of one profile; the execution model is described there.
func (e *Explorer) Sweep(ctx context.Context, p *workload.Profile, freqsHz []float64) (*Sweep, error) {
	sweeps, err := e.SweepMany(ctx, []*workload.Profile{p}, freqsHz)
	if err != nil {
		return nil, err
	}
	return sweeps[0], nil
}

// SweepMany sweeps each profile over the same frequency grid and returns
// the sweeps in profile order. The grid must hold qos.BaselineFreqHz: that
// point is the baseline of every QoS metric. A call whose grid holds a
// frequency the technology cannot reach, or whose ctx is already
// cancelled, fails before warming; a ctx cancelled later stops the call
// at the next sample task (a simulation already running completes).
//
// Execution model, in three phases, each pool at most Jobs wide:
//
//  1. Validate: the grid is checked whole, and each frequency resolved
//     to its operating point.
//  2. Walk: a workload the memo holds is answered from it (see replay).
//     Each remaining workload runs its prelude: a cluster is warmed at
//     the 2GHz baseline and becomes the workload's live point (see
//     prelude). The points are then measured sample-major, in rounds
//     (see runWalks): in round k, each workload with a point still
//     sampling advances its live point by FastForwardInstr per core, and
//     then every such (workload, point) pair measures sample k on a
//     clone of it. Each point stops on its own rule
//     (sampling.Result.Add).
//  3. Evaluate: every point that stopped gets its power and efficiency
//     from its windows. Then, in profile order, each workload's points
//     get their QoS metric against its 2GHz point, and its metrics reach
//     Obs, its result the memo and its points' breakdowns the telemetry.
//
// So the functional warming between samples is walked once per workload,
// and every frequency measures the same sample units. A point's result
// is a pure function of (live point, frequency): a frequency measures the
// same in any grid. Results are bit-identical for every Jobs setting, and
// one call simulates at most Jobs clusters at once.
func (e *Explorer) SweepMany(ctx context.Context, profiles []*workload.Profile, freqsHz []float64) ([]*Sweep, error) {
	if len(freqsHz) == 0 {
		return nil, fmt.Errorf("core: empty frequency list")
	}
	freqs := append([]float64(nil), freqsHz...)
	sort.Float64s(freqs)
	ops := make([]tech.OperatingPoint, len(freqs))
	for i, f := range freqs {
		if f <= 0 {
			return nil, fmt.Errorf("core: non-positive frequency %v", f)
		}
		op, err := e.Platform.Tech.OperatingPointFor(f, 0)
		if err != nil {
			return nil, fmt.Errorf("core: %.0f MHz: %w", f/1e6, err)
		}
		ops[i] = op
	}
	if !slices.Contains(freqs, qos.BaselineFreqHz) {
		return nil, fmt.Errorf("core: the frequency grid lacks the %.0f MHz QoS baseline", qos.BaselineFreqHz/1e6)
	}
	// A memo hit fails on a cancelled ctx exactly as a computation does,
	// and neither pays for warming first.
	if ctx.Err() != nil {
		return nil, context.Cause(ctx)
	}
	sweeps := make([]*Sweep, len(profiles))
	var jobs []*sweepJob
	var walks []*walk
	for i, p := range profiles {
		j := &sweepJob{slot: i, p: p}
		cfg := e.SamplingFor(p)
		if err := cfg.Validate(); err != nil {
			return nil, jobErr(j, err)
		}
		if e.Memo != nil {
			j.hash, j.key = e.sweepKey(p, cfg, freqs)
			if en := e.Memo.lookup(j.hash, j.key, e.Obs != nil); en != nil {
				sw, err := e.replay(p, freqs, en)
				if err != nil {
					return nil, jobErr(j, err)
				}
				sweeps[i] = sw
				continue
			}
		}
		j.walk = newWalk(p.Name, cfg, freqs)
		// A computed sweep harvests into a private registry so that its
		// memo entry can store exactly its counter-class metrics.
		if e.Obs != nil {
			j.reg = obs.NewRegistry()
		}
		jobs = append(jobs, j)
		walks = append(walks, &j.walk)
	}

	err := parallel.ForEach(ctx, len(jobs), e.Jobs, func(_ context.Context, k int) error {
		j := jobs[k]
		return jobErr(j, e.prelude(&j.walk, e.soloProfiles(j.p), qos.BaselineFreqHz))
	})
	if err == nil {
		err = e.runWalks(ctx, walks)
	}

	// Every stopped point is evaluated, and the private registries reach
	// Obs through the same Merge a hit uses, also when the call was
	// cancelled part-way: the measured windows' counters are valid data.
	for _, j := range jobs {
		j.points = make([]Point, len(freqs))
		for k, stopped := range j.stopped {
			if !stopped {
				continue
			}
			j.points[k] = e.evaluate(freqs[k], ops[k], j.res[k])
			if j.reg != nil {
				harvestPoint(j.reg, j.p, j.points[k])
			}
		}
		if j.reg == nil {
			continue
		}
		snap := j.reg.Snapshot().Deterministic()
		j.metrics = &snap
		if merr := e.Obs.Merge(snap); merr != nil && err == nil {
			err = merr
		}
	}
	if err != nil {
		return nil, err
	}
	for _, j := range jobs {
		sw := &Sweep{Workload: j.p, Points: j.points}
		sw.setQoS()
		if e.Memo != nil {
			e.Memo.store(&memoEntry{hash: j.hash, key: j.key,
				points: slices.Clone(j.points), metrics: j.metrics})
		}
		e.recordTelemetry(j.p, j.points)
		sweeps[j.slot] = sw
	}
	return sweeps, nil
}

// sweepJob is one workload of a SweepMany call that the memo did not
// answer: its inputs, its walk, and the points evaluated after the walk.
type sweepJob struct {
	slot int // index in SweepMany's profiles
	p    *workload.Profile
	hash uint64 // memo key, when there is a memo
	key  []byte

	walk // the live point is set by prelude

	points  []Point
	metrics *obs.Snapshot // reg's counter-class snapshot after evaluation
}

// jobErr names j's workload in a non-nil err.
func jobErr(j *sweepJob, err error) error {
	if err != nil {
		return fmt.Errorf("%s: %w", j.p.Name, err)
	}
	return nil
}

// prelude builds a cluster running profiles[i] on core i at freqHz and
// warms it on a trace lane of its own: WarmInstr functional instructions
// per core, then SettleCycles of detailed simulation (the paper launches
// every measurement from a warmed checkpoint, Sec. IV). The warmed
// cluster is w's live point.
func (e *Explorer) prelude(w *walk, profiles []*workload.Profile, freqHz float64) error {
	lane := e.Tracer.AcquireLane()
	defer e.Tracer.ReleaseLane(lane)

	warmStart := time.Now() //ntclint:allow wallclock trace span timestamps only; never reaches results
	cl, err := sim.NewMixedCluster(e.Platform.Cluster, profiles, freqHz)
	if err != nil {
		return err
	}
	cl.FastForward(e.WarmInstr)
	cl.Run(e.SettleCycles)
	//ntclint:allow wallclock trace span duration only; never reaches results
	e.Tracer.Complete("sweep", "warm "+w.name, lane, warmStart, time.Since(warmStart), nil)
	w.live = cl
	return nil
}

// replay answers a sweep from a memo entry exactly as a recomputation
// would look to the caller: fresh points, the stored counter-class
// metrics merged into Obs, the points' telemetry under the caller's
// series name, and the progress lines. Pool timings and per-point trace
// spans have no stored counterpart; one "memo hit" span stands in.
func (e *Explorer) replay(p *workload.Profile, freqs []float64, en *memoEntry) (*Sweep, error) {
	start := time.Now() //ntclint:allow wallclock trace/progress timestamps only; never reaches results
	lane := e.Tracer.AcquireLane()
	defer e.Tracer.ReleaseLane(lane)
	sw := &Sweep{Workload: p, Points: slices.Clone(en.points)}
	if en.metrics != nil {
		if err := e.Obs.Merge(*en.metrics); err != nil {
			return nil, err
		}
	}
	e.recordTelemetry(p, sw.Points)
	e.Progress.Add(len(freqs))
	for _, f := range freqs {
		e.Progress.Done(pointLabel(p.Name, f), time.Since(start)) //ntclint:allow wallclock progress duration only; never reaches results
	}
	//ntclint:allow wallclock trace span duration only; never reaches results
	e.Tracer.Complete("sweep", "memo hit "+p.Name, lane, start, time.Since(start), nil)
	return sw, nil
}

// recordTelemetry records one sample per point of a sweep under its
// series and reports the sweep's total for the conservation audit. A
// sweep has no time axis, so point i books its steady-state watts as the
// energy of second i. It runs after the fan-out barrier, in point order,
// so output is byte-identical for every Jobs setting.
func (e *Explorer) recordTelemetry(p *workload.Profile, points []Point) {
	if e.Telemetry == nil {
		return
	}
	tel := e.Telemetry.Series(e.TelemetryPrefix + "sweep/" + p.Name)
	var totalJ float64
	for i, pt := range points {
		tel.Record(timeseries.Sample{
			Epoch:    i,
			Cluster:  -1, // chip scope: sweeps have no per-cluster view
			Start:    time.Second * time.Duration(i),
			Dur:      time.Second,
			Energy:   pt.Power.Ledger(1),
			FreqHz:   pt.FreqHz,
			VoltageV: pt.Op.Vdd,
			Util:     LoadActivity,
		})
		// Sequential by construction: this loop runs after the fan-out
		// barrier, in fixed point order, so the sum is order-stable.
		//ntclint:allow floatorder post-barrier sequential loop in fixed index order
		totalJ += pt.Power.TotalW() // × 1s pseudo-horizon
	}
	tel.ReportTotal(totalJ)
}

// soloProfiles assigns p to every core of a cluster.
func (e *Explorer) soloProfiles(p *workload.Profile) []*workload.Profile {
	profiles := make([]*workload.Profile, e.Platform.Cluster.CoresPerCluster)
	for i := range profiles {
		profiles[i] = p
	}
	return profiles
}

// pointLabel names one sweep point in trace spans and progress lines.
func pointLabel(name string, freqHz float64) string {
	return fmt.Sprintf("%s @ %.0fMHz", name, freqHz/1e6)
}

// evaluate attaches operating point and power to one sampled result; the
// QoS metric waits for the sweep's 2GHz point (see Sweep.setQoS).
func (e *Explorer) evaluate(f float64, op tech.OperatingPoint, res sampling.Result) Point {
	spec := e.Platform
	clusters := float64(spec.Clusters)
	uipsChip := res.MeanUIPS() * clusters

	// Per-cluster uncore activity rates come straight from the simulation;
	// memory bandwidth is aggregated across clusters.
	var pw platform.ServerPower
	pw.CoreDynW, pw.CoreLeakW = spec.CorePower(op, LoadActivity)
	pw.LLCW, pw.XbarW, pw.IOW = spec.UncorePower(res.Total.LLCReadRate(), res.Total.LLCWriteRate(), res.Total.LLCAccessRate())
	pw.DRAMW = spec.MemoryPowerW(res.Total.ReadBandwidth()*clusters, res.Total.WriteBandwidth()*clusters)

	pt := Point{
		FreqHz:   f,
		Op:       op,
		UIPSChip: uipsChip,
		Power:    pw,
		Samples:  len(res.Samples),
		RelErr:   res.RelErr(),
	}
	if pw.CoresW() > 0 {
		pt.EffCores = uipsChip / pw.CoresW()
	}
	if pw.SoCW() > 0 {
		pt.EffSoC = uipsChip / pw.SoCW()
	}
	if pw.TotalW() > 0 {
		pt.EffServer = uipsChip / pw.TotalW()
	}
	return pt
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
