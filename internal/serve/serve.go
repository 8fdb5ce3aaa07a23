// Package serve is the discrete-event request-serving simulator: the
// layer that turns the repo's analytic QoS story (qos.TailModel's M/M/k
// approximation, governor.Config's capacity planning) into an actual
// request stream hitting an actual governed fleet. It is the one
// evaluator of what a DVFS+FBB policy costs over a load trace.
//
// A Sim owns a multi-cluster fleet. Poisson/diurnal arrivals are drawn
// from a governor.LoadTrace (nonhomogeneous thinning, see ArrivalGen),
// dispatched to a cluster by a pluggable Balancer, queued FIFO behind the
// cluster's cores, and serviced for an Exp(1)-distributed demand scaled
// by the mean service time the performance curve implies at the current
// operating frequency. At every epoch boundary (one trace step) a Policy
// observes the measured state — served throughput, backlog, p99 so far —
// and picks the next governor.Decision, so DVFS+FBB reacts to feedback,
// not just to the offered-load plan. Per-request latencies stream into a
// bounded-relative-error percentile Sketch; energy integrates the
// governor's shared power accounting (CorePower with the measured busy
// fraction, SharedPower with the measured served rate).
//
// Determinism contract: a Sim is single-threaded and all randomness comes
// from substreams of the seed stream handed to New, so Result is a pure
// function of (Config, seed) — never of wall time or worker count. The
// simulation clock is integer nanoseconds (time.Duration); simultaneous
// events order departure < epoch < arrival, then by issue sequence.
//
// The energy figure covers the trace horizon only: requests still in
// flight when the trace ends are drained (their latencies and violations
// count) but the drain tail's energy is not charged, since no epoch
// closes it.
package serve

import (
	"context"
	"fmt"
	"math"
	"time"

	"ntcsim/internal/governor"
	"ntcsim/internal/obs"
	"ntcsim/internal/obs/timeseries"
	"ntcsim/internal/rng"
)

// Config describes one serving scenario.
type Config struct {
	// Gov supplies the platform, performance curve, tail model and QoS
	// limit. The fleet is Gov.Platform's Clusters clusters of
	// Gov.Platform.Cluster.CoresPerCluster cores each, and Gov.Tail.Cores
	// must equal Gov.Platform.TotalCores() so the fleet's capacity matches
	// the analytic model it is validated against.
	Gov *governor.Config
	// Policy decides the operating point at each epoch boundary.
	Policy Policy
	// Balancer routes each arrival to a cluster. Instances may be
	// stateful and must not be shared between Sims.
	Balancer Balancer
	// Trace is the offered-load schedule; one step is one governor epoch.
	Trace governor.LoadTrace
	// Warmup excludes requests that ARRIVE before it from the latency
	// sketch and violation counts (energy is still charged).
	Warmup time.Duration
	// QueueCap bounds each cluster's waiting line; 0 means unbounded.
	// Arrivals beyond the cap are dropped and counted.
	QueueCap int
	// Metrics, when non-nil, receives serve.* counters and the latency
	// histogram. Counter-class: deterministic for any worker count.
	Metrics *obs.Registry
	// Tracer, when non-nil, gets one simulated-time lane per cluster with
	// a span per epoch (busy fraction, frequency, backlog).
	Tracer *obs.Tracer
	// Telemetry, when non-nil, receives one energy-ledger sample per
	// (cluster, epoch): the epoch's joules attributed to core dynamic,
	// core leakage, LLC, crossbar, IO and DRAM, plus the operating point
	// and measured load state. Counter-class and nil-gated like Metrics.
	Telemetry *timeseries.Series
}

// request is one in-flight request: when it arrived and how much service
// demand it carries (an Exp(1) multiplier of the mean service time at
// whatever frequency the fleet runs when service starts).
type request struct {
	arrive time.Duration
	work   float64
}

// cluster is one serving cluster: cores in service plus a FIFO ring of
// waiting requests and the busy-time integral for energy accounting.
//
// The busy-time integral is accumulated lazily: busyAcc is only current
// up to upTo, and settle folds in the busy*elapsed product when the busy
// count is about to change or when an epoch closes. Between changes the
// integrand is constant, and the fold is integer nanosecond arithmetic,
// so the settled value is bit-identical to eager per-event accumulation
// — without the O(clusters) walk the event loop used to pay on every
// clock advance.
type cluster struct {
	busy    int
	queue   []request
	head    int
	busyAcc time.Duration // sum over cores of in-service time this epoch, current up to upTo
	upTo    time.Duration // clock up to which busyAcc is settled
}

// settle folds the busy-core time elapsed since the last settle into
// busyAcc. Idempotent at a fixed now.
func (c *cluster) settle(now time.Duration) {
	if dt := now - c.upTo; dt > 0 {
		c.busyAcc += time.Duration(c.busy) * dt
	}
	c.upTo = now
}

func (c *cluster) qlen() int { return len(c.queue) - c.head }

func (c *cluster) push(r request) { c.queue = append(c.queue, r) }

func (c *cluster) pop() request {
	r := c.queue[c.head]
	c.head++
	if c.head > 64 && c.head*2 >= len(c.queue) {
		n := copy(c.queue, c.queue[c.head:])
		c.queue = c.queue[:n]
		c.head = 0
	}
	return r
}

// departure is a scheduled service completion.
type departure struct {
	t       time.Duration
	seq     uint64
	cluster int
	arrive  time.Duration
}

// depHeap is a min-heap of departures ordered by (time, issue sequence).
// It is a concrete slice heap — push/pop move departure values directly,
// with no interface boxing, so scheduling a completion costs zero
// allocations once the backing array has grown to the steady-state
// in-flight population. The (t, seq) key is unique (seq is a strictly
// increasing issue counter), so the pop order is fully determined by the
// keys and independent of the heap's internal layout.
type depHeap []departure

func (h depHeap) less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}

// push inserts d and restores the heap invariant (sift-up).
func (h *depHeap) push(d departure) {
	*h = append(*h, d)
	s := *h
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

// popMin removes and returns the minimum element (sift-down).
func (h *depHeap) popMin() departure {
	s := *h
	min := s[0]
	n := len(s) - 1
	s[0] = s[n]
	*h = s[:n]
	for i := 0; ; {
		l := 2*i + 1
		if l >= n {
			break
		}
		child := l
		if r := l + 1; r < n && s.less(r, l) {
			child = r
		}
		if !s.less(child, i) {
			break
		}
		s[i], s[child] = s[child], s[i]
		i = child
	}
	return min
}

// Result summarizes one serving run.
type Result struct {
	Policy   string
	Balancer string

	Arrivals   uint64
	Served     uint64
	Dropped    uint64 // arrivals rejected by QueueCap
	Violations uint64 // post-warmup completions over the QoS limit
	Boosts     uint64 // epochs entered under FBB boost

	P50, P95, P99, P999 time.Duration // post-warmup latency quantiles

	MaxQueue  int     // peak fleet-wide backlog
	EnergyJ   float64 // energy over the trace horizon
	AvgPowerW float64 // EnergyJ / horizon

	// Ledger attributes EnergyJ by component (integer nanojoules). Only
	// populated when Telemetry or Metrics is configured; its component
	// sum matches EnergyJ within the conservation epsilon.
	Ledger timeseries.Ledger
}

// Sim is one deterministic serving simulation. Construct with New, drive
// with Run.
type Sim struct {
	// Configuration: fixed at New and never mutated mid-run.
	cfg     Config
	gcfg    *governor.Config
	pol     Policy
	bal     Balancer
	lambda  []float64
	stepDur time.Duration

	clusters []*cluster
	perCl    int // cores per cluster
	deps     depHeap
	gen      *ArrivalGen
	work     *rng.Stream
	lbRand   *rng.Stream

	now      time.Duration
	nextArr  time.Duration
	haveArr  bool
	epoch    int // index of the epoch in progress; len(lambda) once done
	decision governor.Decision
	meanSvc  float64 // seconds of service per unit of work at the current frequency
	lastRate float64 // served throughput of the previous epoch, req/s
	seq      uint64
	queued   int // fleet-wide backlog

	sketch *Sketch

	arrivals, served, dropped, violations, boosts uint64
	servedEpoch                                   uint64
	energyJ                                       float64
	maxQueue                                      int

	tel       *timeseries.Series
	attrib    bool              // derived from tel/metrics presence at New
	ledger    timeseries.Ledger // run-total energy attribution
	partsMemo map[governor.Decision]partsCoeffs

	loads     []ClusterLoad // scratch: overwritten before every balancer call
	needLoads bool          // balancer capability probed at New
	lanes     []int         // tracer lane ids assigned at New

	mArr, mServed, mDropped, mViol, mBoost *obs.Counter
	hLat                                   *obs.Histogram
}

// latencyBucketsMs is the serve.latency_ms histogram layout.
var latencyBucketsMs = []float64{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000}

// New validates the scenario and builds a simulation positioned at t=0
// with the policy's first decision applied. The seed stream is not
// consumed; arrival, service-demand and balancer randomness run on
// substreams derived from it.
func New(cfg Config, seed *rng.Stream) (*Sim, error) {
	if cfg.Gov == nil {
		return nil, fmt.Errorf("serve: nil governor config")
	}
	if cfg.Policy == nil || cfg.Balancer == nil {
		return nil, fmt.Errorf("serve: policy and balancer are required")
	}
	if seed == nil {
		return nil, fmt.Errorf("serve: nil seed stream")
	}
	fleet := cfg.Gov.Platform
	if fleet == nil {
		return nil, fmt.Errorf("serve: nil platform")
	}
	if fleet.Clusters <= 0 || fleet.Cluster.CoresPerCluster <= 0 {
		return nil, fmt.Errorf("serve: fleet shape %dx%d must be positive", fleet.Clusters, fleet.Cluster.CoresPerCluster)
	}
	if got := fleet.TotalCores(); cfg.Gov.Tail.Cores != got {
		return nil, fmt.Errorf("serve: tail model has %d cores, fleet has %d (%dx%d): capacities would diverge",
			cfg.Gov.Tail.Cores, got, fleet.Clusters, fleet.Cluster.CoresPerCluster)
	}
	if cfg.Gov.Margin <= 0 || cfg.Gov.Margin > 1 {
		return nil, fmt.Errorf("serve: margin must be in (0,1]")
	}
	if cfg.Trace.Step <= 0 || len(cfg.Trace.Lambda) == 0 {
		return nil, fmt.Errorf("serve: empty load trace")
	}
	if cfg.Warmup < 0 {
		cfg.Warmup = 0
	}
	if cfg.QueueCap < 0 {
		cfg.QueueCap = 0
	}
	if len(cfg.Gov.Curve.Points) == 0 {
		return nil, fmt.Errorf("serve: empty performance curve")
	}
	// Every curve frequency must resolve to an operating point and a
	// positive service time now, so the event loop cannot fail later.
	for _, pt := range cfg.Gov.Curve.Points {
		if _, err := cfg.Gov.CorePower(governor.Decision{FreqHz: pt.FreqHz}, 1, 0); err != nil {
			return nil, fmt.Errorf("serve: curve point %.0f MHz: %w", pt.FreqHz/1e6, err)
		}
		if cfg.Gov.Tail.MeanService(pt.UIPS) <= 0 {
			return nil, fmt.Errorf("serve: non-positive service time at %.0f MHz", pt.FreqHz/1e6)
		}
	}

	s := &Sim{
		cfg:     cfg,
		gcfg:    cfg.Gov,
		pol:     cfg.Policy,
		bal:     cfg.Balancer,
		stepDur: cfg.Trace.Step,
		gen:     NewArrivalGen(cfg.Trace, seed.Derive("serve-arrivals")),
		work:    seed.Derive("serve-work"),
		lbRand:  seed.Derive("serve-balance"),
		sketch:  NewSketch(),
		perCl:   fleet.Cluster.CoresPerCluster,
		loads:   make([]ClusterLoad, fleet.Clusters),
		tel:     cfg.Telemetry,
		attrib:  cfg.Telemetry != nil || cfg.Metrics != nil,
	}
	s.needLoads = needsLoads(cfg.Balancer)
	s.lambda = make([]float64, len(cfg.Trace.Lambda))
	for i, lam := range cfg.Trace.Lambda {
		if math.IsNaN(lam) || lam < 0 {
			lam = 0
		}
		if lam > maxArrivalRate {
			lam = maxArrivalRate
		}
		s.lambda[i] = lam
	}
	s.clusters = make([]*cluster, fleet.Clusters)
	s.lanes = make([]int, fleet.Clusters)
	for i := range s.clusters {
		s.clusters[i] = &cluster{}
		s.lanes[i] = cfg.Tracer.AcquireLane()
	}
	if cfg.Metrics != nil {
		s.mArr = cfg.Metrics.Counter("serve.arrivals")
		s.mServed = cfg.Metrics.Counter("serve.served")
		s.mDropped = cfg.Metrics.Counter("serve.dropped")
		s.mViol = cfg.Metrics.Counter("serve.violations")
		s.mBoost = cfg.Metrics.Counter("serve.boosts")
		s.hLat = cfg.Metrics.Histogram("serve.latency_ms", latencyBucketsMs)
	}
	s.nextArr, s.haveArr = s.gen.Next()
	s.decide()
	return s, nil
}

// Close releases the tracer lanes. Safe to call on a Sim that never
// traced; call it once the Sim is done.
func (s *Sim) Close() {
	for _, lane := range s.lanes {
		s.cfg.Tracer.ReleaseLane(lane)
	}
	s.lanes = nil
}

// decide asks the policy for the current epoch's decision and applies it.
func (s *Sim) decide() {
	o := Observation{
		Epoch:        s.epoch,
		Offered:      s.lambda[s.epoch],
		MeasuredRate: s.lastRate,
		Queued:       s.queued,
		Tail99:       s.sketch.Quantile(0.99),
		PrevFreqHz:   s.decision.FreqHz,
	}
	d := s.pol.Decide(s.gcfg, o)
	// Clamp the frequency into the curve's range: UIPSAt clamps anyway,
	// and a clamped decision keeps the energy model's operating-point
	// lookup inside the validated set.
	if math.IsNaN(d.FreqHz) || d.FreqHz < s.gcfg.Curve.MinFreq() {
		d.FreqHz = s.gcfg.Curve.MinFreq()
	}
	if d.FreqHz > s.gcfg.Curve.MaxFreq() {
		d.FreqHz = s.gcfg.Curve.MaxFreq()
	}
	if d.Boost {
		s.boosts++
		s.mBoost.Add(1)
	}
	s.decision = d
	s.meanSvc = s.gcfg.Tail.MeanService(s.gcfg.Curve.UIPSAt(d.FreqHz)).Seconds()
}

// advanceTo moves the simulation clock. Busy core-time is NOT integrated
// here: each cluster settles its own integral lazily when its busy count
// changes (see cluster.settle), so advancing the clock is O(1).
func (s *Sim) advanceTo(t time.Duration) {
	if t > s.now {
		s.now = t
	}
}

// startService puts req on a core of cluster cl and schedules its
// completion at the service rate of the CURRENT operating point. The
// 1ns floor keeps completions strictly after dispatch.
func (s *Sim) startService(cl int, req request) {
	c := s.clusters[cl]
	c.settle(s.now)
	c.busy++
	d := time.Duration(req.work * s.meanSvc * 1e9)
	if d < 1 {
		d = 1
	}
	s.seq++
	s.deps.push(departure{t: s.now + d, seq: s.seq, cluster: cl, arrive: req.arrive})
}

// processArrival dispatches the arrival at the current clock.
func (s *Sim) processArrival() {
	s.arrivals++
	s.mArr.Add(1)
	if s.needLoads {
		for i, c := range s.clusters {
			s.loads[i] = ClusterLoad{Busy: c.busy, Queued: c.qlen()}
		}
	}
	idx := s.bal.Pick(s.loads, s.lbRand)
	if idx < 0 || idx >= len(s.clusters) {
		panic(fmt.Sprintf("serve: balancer %s returned cluster %d of %d", s.bal.Name(), idx, len(s.clusters)))
	}
	req := request{arrive: s.now, work: s.work.Exponential(1)}
	c := s.clusters[idx]
	switch {
	case c.busy < s.perCl:
		s.startService(idx, req)
	case s.cfg.QueueCap > 0 && c.qlen() >= s.cfg.QueueCap:
		s.dropped++
		s.mDropped.Add(1)
	default:
		c.push(req)
		s.queued++
		if s.queued > s.maxQueue {
			s.maxQueue = s.queued
		}
	}
}

// processDeparture completes the earliest scheduled service.
func (s *Sim) processDeparture() {
	dep := s.deps.popMin()
	c := s.clusters[dep.cluster]
	c.settle(s.now)
	c.busy--
	s.served++
	s.servedEpoch++
	s.mServed.Add(1)
	latency := s.now - dep.arrive
	s.hLat.Observe(float64(latency) / 1e6)
	if dep.arrive >= s.cfg.Warmup {
		s.sketch.Observe(latency)
		if latency > s.gcfg.QoSLimit {
			s.violations++
			s.mViol.Add(1)
		}
	}
	if c.qlen() > 0 {
		s.queued--
		s.startService(dep.cluster, c.pop())
	}
}

// finishEpoch closes the epoch ending at the current clock: charges its
// energy from the measured busy fractions and served rate, emits the
// per-cluster trace spans, and resets the epoch accumulators.
func (s *Sim) finishEpoch() error {
	stepSec := s.stepDur.Seconds()
	kc := s.perCl
	denom := float64(kc) * float64(s.stepDur)
	start := s.stepDur * time.Duration(s.epoch)
	rate := float64(s.servedEpoch) / stepSec
	// Energy attribution is nil-gated behind attrib; the energy charge
	// itself (s.energyJ) runs the identical float sequence either way.
	var sharedLed timeseries.Ledger
	var p99 time.Duration
	var dynFull, leakIdle, leakSlope, vdd float64
	if s.attrib {
		// One cluster's share of the chip-wide standing power this epoch.
		// The shared terms are charged once per chip but attributed per
		// cluster, so each row carries 1/Clusters of them.
		shared := s.gcfg.SharedPowerParts(rate)
		cf := stepSec / float64(len(s.clusters))
		sharedLed = timeseries.Ledger{
			LLCNJ:  timeseries.NJ(shared.LLCW * cf),
			XbarNJ: timeseries.NJ(shared.XbarW * cf),
			IONJ:   timeseries.NJ(shared.IOW * cf),
			DRAMNJ: timeseries.NJ(shared.DRAMW * cf),
		}
		p99 = s.sketch.Quantile(0.99)
		co, err := s.partsFor(s.decision, kc)
		if err != nil {
			return fmt.Errorf("serve: epoch %d power parts: %w", s.epoch, err)
		}
		dynFull, leakIdle, leakSlope, vdd = co.dynFull, co.leakIdle, co.leakSlope, co.vdd
	}
	for i, c := range s.clusters {
		c.settle(s.now)
		busyFrac := float64(c.busyAcc) / denom
		if busyFrac > 1 {
			busyFrac = 1
		}
		w, err := s.gcfg.CorePower(s.decision, kc, busyFrac)
		if err != nil {
			return fmt.Errorf("serve: epoch %d power: %w", s.epoch, err)
		}
		s.energyJ += w * stepSec
		if s.attrib {
			led := sharedLed
			led.CoreDynNJ = timeseries.NJ(busyFrac * dynFull * stepSec)
			led.CoreLeakNJ = timeseries.NJ((leakIdle + busyFrac*leakSlope) * stepSec)
			s.ledger.Add(led)
			s.tel.Record(timeseries.Sample{
				Epoch:    s.epoch,
				Cluster:  i,
				Start:    start,
				Dur:      s.stepDur,
				Energy:   led,
				FreqHz:   s.decision.FreqHz,
				VoltageV: vdd,
				Util:     busyFrac,
				Queue:    c.qlen(),
				P99:      p99,
			})
		}
		if s.cfg.Tracer != nil {
			s.cfg.Tracer.CompleteAt("serve", fmt.Sprintf("cluster %d", i), s.lanes[i], start, s.stepDur,
				map[string]any{
					"busy":     busyFrac,
					"freq_ghz": s.decision.FreqHz / 1e9,
					"queued":   c.qlen(),
					"epoch":    s.epoch,
				})
		}
		c.busyAcc = 0
	}
	s.lastRate = rate
	s.energyJ += s.gcfg.SharedPower(rate) * stepSec
	s.servedEpoch = 0
	return nil
}

// advance processes the next event. It returns false when the simulation
// is complete: arrivals exhausted, departures drained, all epochs closed.
func (s *Sim) advance() (bool, error) {
	const never = time.Duration(math.MaxInt64)
	depT, epochT, arrT := never, never, never
	if len(s.deps) > 0 {
		depT = s.deps[0].t
	}
	if s.epoch < len(s.lambda) {
		epochT = s.stepDur * time.Duration(s.epoch+1)
	}
	if s.haveArr {
		arrT = s.nextArr
	}
	switch {
	case depT == never && epochT == never && arrT == never:
		return false, nil
	case depT <= epochT && depT <= arrT:
		s.advanceTo(depT)
		s.processDeparture()
	case epochT <= arrT:
		s.advanceTo(epochT)
		if err := s.finishEpoch(); err != nil {
			return false, err
		}
		s.epoch++
		if s.epoch < len(s.lambda) {
			s.decide()
		}
	default:
		s.advanceTo(arrT)
		s.processArrival()
		s.nextArr, s.haveArr = s.gen.Next()
	}
	return true, nil
}

// runUntil processes events until the simulation enters the given epoch
// or completes, checking ctx periodically.
func (s *Sim) runUntil(ctx context.Context, epoch int) error {
	for i := 0; s.epoch < epoch; i++ {
		if i&8191 == 0 && ctx != nil {
			if err := ctx.Err(); err != nil {
				return context.Cause(ctx)
			}
		}
		ok, err := s.advance()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
	}
	return nil
}

// Run drives the simulation to completion and returns its result.
func (s *Sim) Run(ctx context.Context) (Result, error) {
	if err := s.runUntil(ctx, len(s.lambda)+1); err != nil {
		return Result{}, err
	}
	s.tel.ReportTotal(s.energyJ)
	s.publishEnergyGauges()
	return s.Result(), nil
}

// publishEnergyGauges exposes the run's energy attribution as
// per-component gauges (serve.energy.<policy>.<balancer>.<component>_j),
// so the DES reports the same ledger schema as its per-epoch telemetry.
// Keys embed the scenario, keeping every writer unique (the gauge
// determinism rule).
func (s *Sim) publishEnergyGauges() {
	m := s.cfg.Metrics
	if m == nil {
		return
	}
	prefix := "serve.energy." + s.pol.Name() + "." + s.bal.Name() + "."
	set := func(component string, nj int64) {
		m.Gauge(prefix + component).Set(float64(nj) / 1e9)
	}
	set("core_dyn_j", s.ledger.CoreDynNJ)
	set("core_leak_j", s.ledger.CoreLeakNJ)
	set("llc_j", s.ledger.LLCNJ)
	set("xbar_j", s.ledger.XbarNJ)
	set("io_j", s.ledger.IONJ)
	set("dram_j", s.ledger.DRAMNJ)
}

// partsCoeffs caches the attribution split for one decision: DynW scales
// with the busy fraction, LeakW interpolates between all-idle and
// all-busy (the boost premium is constant in busy), so per cluster the
// ledger is pure arithmetic on these four floats.
type partsCoeffs struct {
	dynFull, leakIdle, leakSlope, vdd float64
}

// partsFor memoizes CorePowerParts' affine coefficients per decision.
// Policies revisit a handful of operating points over a trace, so the
// memo bounds the attribution cost to one operating-point solve pair per
// distinct decision — the telemetry-on hot path stays inside the <2%
// overhead budget (BenchmarkObsOverheadSampler).
func (s *Sim) partsFor(d governor.Decision, kc int) (partsCoeffs, error) {
	if co, ok := s.partsMemo[d]; ok {
		return co, nil
	}
	parts0, err := s.gcfg.CorePowerParts(d, kc, 0)
	if err != nil {
		return partsCoeffs{}, err
	}
	parts1, err := s.gcfg.CorePowerParts(d, kc, 1)
	if err != nil {
		return partsCoeffs{}, err
	}
	co := partsCoeffs{
		dynFull:   parts1.DynW,
		leakIdle:  parts0.LeakW,
		leakSlope: parts1.LeakW - parts0.LeakW,
		vdd:       parts1.Vdd,
	}
	if s.partsMemo == nil {
		s.partsMemo = make(map[governor.Decision]partsCoeffs)
	}
	s.partsMemo[d] = co
	return co, nil
}

// Result reads the current summary; call after Run (or mid-run for
// progress).
func (s *Sim) Result() Result {
	horizon := s.stepDur.Seconds() * float64(len(s.lambda))
	return Result{
		Policy:     s.pol.Name(),
		Balancer:   s.bal.Name(),
		Arrivals:   s.arrivals,
		Served:     s.served,
		Dropped:    s.dropped,
		Violations: s.violations,
		Boosts:     s.boosts,
		P50:        s.sketch.Quantile(0.50),
		P95:        s.sketch.Quantile(0.95),
		P99:        s.sketch.Quantile(0.99),
		P999:       s.sketch.Quantile(0.999),
		MaxQueue:   s.maxQueue,
		EnergyJ:    s.energyJ,
		AvgPowerW:  s.energyJ / horizon,
		Ledger:     s.ledger,
	}
}
