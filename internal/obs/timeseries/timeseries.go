// Package timeseries is the energy-attribution telemetry layer: a
// deterministic per-epoch sampler that records, for every cluster and
// epoch of a run, an energy ledger decomposed by component — core
// dynamic, core leakage, LLC, crossbar, I/O, DRAM — alongside the
// operating point (frequency, voltage), utilization, queue depth and the
// streaming p99 estimate. It is the time-resolved counterpart of the
// paper's component power breakdowns (Fig. 1, Figs. 5/6): instead of
// end-of-run scalar totals, every producer (serving DES, design-space
// sweeps) reports where the joules went over time.
//
// # Determinism contract
//
// Telemetry is COUNTER-CLASS: the CSV dump, counter-lane trace events
// and expvar snapshot are byte-identical for every -jobs setting.
// Energy is accumulated in fixed-point integer NANOJOULES (int64, see
// NJ) so no order-dependent float summation can creep into the ledger;
// int64 nanojoules cover ±9.2 GJ, orders of magnitude beyond a
// simulated day at server power, while a femtojoule fixed point would
// overflow on a single 15-minute epoch at 100 W. Producers are
// single-threaded per Series (one Series per simulation, one recording
// pass per sweep), and the Sampler sorts series by name on every
// export, so concurrent scenarios cannot reorder output.
//
// # Nil gating
//
// Like the rest of internal/obs, every method is nil-receiver safe:
// instrumented layers hold a nil *Sampler / *Series when telemetry is
// off and the hot path stays byte-for-byte the seed path (enforced by
// the obsgate analyzer and bounded by BenchmarkObsOverheadSampler).
//
// # Conservation auditing
//
// Producers that know their run's total energy call Series.ReportTotal;
// Sampler.Audit then fails the run if any series' ledger sum diverges
// from its reported total beyond a relative epsilon — catching
// attribution bugs (a component dropped, double-charged, or mis-scaled).
// Producers charge their total and book their ledger from the same
// per-scope watts, so the two differ only by nanojoule quantization:
// DefaultEpsilon (1e-6 relative) absorbs the ≤0.5 nJ/component/sample
// rounding, while any real attribution bug is orders of magnitude larger.
package timeseries

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"ntcsim/internal/obs"
)

// DefaultEpsilon is Audit's default relative tolerance. See the package
// comment for why 1e-6: nanojoule quantization sits far below it, real
// attribution bugs far above.
const DefaultEpsilon = 1e-6

// NJ converts joules to fixed-point integer nanojoules (round to
// nearest). All ledger accumulation happens on the int64 results, so
// sums are associative and worker-count independent.
func NJ(joules float64) int64 {
	return int64(math.Round(joules * 1e9))
}

// Ledger is one energy attribution in integer nanojoules: where the
// joules of one (cluster, epoch) cell went. The six components follow
// the paper's breakdown scopes: core switching vs core static power,
// then the uncore (LLC, crossbar, chip-edge I/O) and memory.
type Ledger struct {
	CoreDynNJ  int64 // core dynamic (switching) energy
	CoreLeakNJ int64 // core leakage (incl. sleep/boost premiums)
	LLCNJ      int64 // last-level cache
	XbarNJ     int64 // cache-coherent crossbar
	IONJ       int64 // chip-edge peripherals / unattributed uncore
	DRAMNJ     int64 // memory background + dynamic
}

// Add accumulates o into l component-wise.
func (l *Ledger) Add(o Ledger) {
	l.CoreDynNJ += o.CoreDynNJ
	l.CoreLeakNJ += o.CoreLeakNJ
	l.LLCNJ += o.LLCNJ
	l.XbarNJ += o.XbarNJ
	l.IONJ += o.IONJ
	l.DRAMNJ += o.DRAMNJ
}

// TotalNJ returns the component sum in nanojoules.
func (l Ledger) TotalNJ() int64 {
	return l.CoreDynNJ + l.CoreLeakNJ + l.LLCNJ + l.XbarNJ + l.IONJ + l.DRAMNJ
}

// TotalJ returns the component sum in joules.
func (l Ledger) TotalJ() float64 { return float64(l.TotalNJ()) / 1e9 }

// Sample is one telemetry row: the energy ledger of one cluster over one
// epoch, plus the operating point and measured load state. Cluster -1
// means chip scope (producers without a per-cluster view, e.g. sweeps).
type Sample struct {
	Epoch   int
	Cluster int
	Start   time.Duration // epoch start on the producer's simulated-time axis
	Dur     time.Duration // epoch length
	Energy  Ledger

	FreqHz   float64
	VoltageV float64
	Util     float64       // measured busy fraction (or planned utilization)
	Queue    int           // backlog at epoch end
	P99      time.Duration // streaming p99 estimate at epoch end (0 if n/a)
}

// Series is one producer's sample stream — one serving scenario, one
// policy replay, one sweep. Samples are recorded in producer order and
// the running ledger sum is kept incrementally, so Audit needs no
// re-scan. All methods are nil-receiver safe.
type Series struct {
	mu          sync.Mutex
	name        string
	samples     []Sample
	sum         Ledger
	reportedJ   float64
	hasReported bool
}

// Name returns the series name ("" on nil).
func (s *Series) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Record appends one sample and folds its ledger into the running sum.
// The mutex makes a shared series safe, but deterministic output needs
// a single recording goroutine per series (the producers' contract).
func (s *Series) Record(sm Sample) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.samples = append(s.samples, sm)
	s.sum.Add(sm.Energy)
	s.mu.Unlock()
}

// ReportTotal declares joules of total energy the producer's own
// accounting reported for the recorded samples. Additive: a series fed
// by several sequential runs accumulates their totals, mirroring how
// Record accumulates their ledgers. Audit compares the two.
func (s *Series) ReportTotal(joules float64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.reportedJ += joules
	s.hasReported = true
	s.mu.Unlock()
}

// Len returns the number of recorded samples (0 on nil).
func (s *Series) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.samples)
}

// Samples returns a copy of the recorded samples (nil on nil receiver).
func (s *Series) Samples() []Sample {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Sample(nil), s.samples...)
}

// Sum returns the running ledger total across all samples.
func (s *Series) Sum() Ledger {
	if s == nil {
		return Ledger{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sum
}

// Reported returns the producer-reported total energy and whether one
// was reported.
func (s *Series) Reported() (joules float64, ok bool) {
	if s == nil {
		return 0, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reportedJ, s.hasReported
}

// Sampler is the run-wide telemetry registry: a name-deduplicated set of
// series. Concurrent producers may create series in any order; every
// export sorts by name, so output stays byte-identical across -jobs.
// All methods are nil-receiver safe.
type Sampler struct {
	mu     sync.Mutex
	byName map[string]*Series
}

// NewSampler returns an empty telemetry registry.
func NewSampler() *Sampler {
	return &Sampler{byName: make(map[string]*Series)}
}

// Series returns the series with the given name, creating it on first
// use (names are sanitized: the CSV delimiters ',' and newline become
// '_'). Returns nil on a nil sampler, so producers can hold the result
// without their own enabled-check.
func (s *Sampler) Series(name string) *Series {
	if s == nil {
		return nil
	}
	name = sanitizeName(name)
	s.mu.Lock()
	defer s.mu.Unlock()
	ser := s.byName[name]
	if ser == nil {
		ser = &Series{name: name}
		s.byName[name] = ser
	}
	return ser
}

// sanitizeName keeps series names out of the CSV delimiter space.
func sanitizeName(name string) string {
	return strings.Map(func(r rune) rune {
		switch r {
		case ',', '\n', '\r':
			return '_'
		}
		return r
	}, name)
}

// All returns every series sorted by name — the canonical export order.
func (s *Sampler) All() []*Series {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	out := make([]*Series, 0, len(s.byName))
	//ntclint:allow maprange export order is re-established by the sort below
	for _, ser := range s.byName {
		out = append(out, ser)
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Audit verifies energy conservation: for every series with a reported
// total, the ledger sum must match within eps relative tolerance
// (|sum − reported| ≤ eps·max(1, |reported|); eps ≤ 0 selects
// DefaultEpsilon). Series without a reported total are skipped — they
// have nothing to conserve against. Nil samplers audit clean.
func (s *Sampler) Audit(eps float64) error {
	if s == nil {
		return nil
	}
	if eps <= 0 {
		eps = DefaultEpsilon
	}
	for _, ser := range s.All() {
		rep, ok := ser.Reported()
		if !ok {
			continue
		}
		sum := ser.Sum().TotalJ()
		tol := eps * math.Max(1, math.Abs(rep))
		if diff := math.Abs(sum - rep); diff > tol {
			return fmt.Errorf(
				"timeseries: energy not conserved in series %q: ledger components sum to %.9g J but the run reported %.9g J (|Δ| %.3g J exceeds tolerance %.3g J) — a component is dropped, double-charged or mis-scaled",
				ser.Name(), sum, rep, diff, tol)
		}
	}
	return nil
}

// EmitTraceCounters appends one Chrome trace counter ("C") event per
// sample to the tracer: a per-cluster counter lane named after the
// series (suffix "/c<N>" per cluster; chip-scope samples use the bare
// name), with the six ledger components as stacked counter values —
// Perfetto renders each lane as a stacked area over simulated time.
// Emit after all producers finish (the canonical sorted order makes the
// event stream deterministic); the timestamps are simulated-time, the
// same axis the serving DES's CompleteAt spans use.
func (s *Sampler) EmitTraceCounters(t *obs.Tracer) {
	if s == nil || t == nil {
		return
	}
	for _, ser := range s.All() {
		for _, sm := range ser.Samples() {
			name := ser.Name() + " energy_nj"
			if sm.Cluster >= 0 {
				name = fmt.Sprintf("%s/c%d energy_nj", ser.Name(), sm.Cluster)
			}
			t.CounterAt("telemetry", name, sm.Start, map[string]float64{
				"core_dyn":  float64(sm.Energy.CoreDynNJ),
				"core_leak": float64(sm.Energy.CoreLeakNJ),
				"llc":       float64(sm.Energy.LLCNJ),
				"xbar":      float64(sm.Energy.XbarNJ),
				"io":        float64(sm.Energy.IONJ),
				"dram":      float64(sm.Energy.DRAMNJ),
			})
		}
	}
}

// SeriesSnapshot is one series' summary in the expvar snapshot: a plain
// data carrier (exempt from the obsgate rule like obs.Snapshot).
type SeriesSnapshot struct {
	Name      string  `json:"name"`
	Samples   int     `json:"samples"`
	EnergyJ   float64 `json:"energy_j"`
	ReportedJ float64 `json:"reported_j,omitempty"`
}

// Snapshot summarizes every series for live inspection (expvar); sorted
// by name like every other export.
func (s *Sampler) Snapshot() []SeriesSnapshot {
	if s == nil {
		return nil
	}
	all := s.All()
	out := make([]SeriesSnapshot, 0, len(all))
	for _, ser := range all {
		ss := SeriesSnapshot{
			Name:    ser.Name(),
			Samples: ser.Len(),
			EnergyJ: ser.Sum().TotalJ(),
		}
		if rep, ok := ser.Reported(); ok {
			ss.ReportedJ = rep
		}
		out = append(out, ss)
	}
	return out
}
