// Package obs is the simulator-wide observability layer: a lightweight,
// allocation-conscious metrics registry (counters, gauges, histograms with
// fixed bucket layouts, wall-clock timings), a structured event tracer
// that emits Chrome trace-viewer JSON (see trace.go), and a live progress
// reporter for long sweeps (see progress.go).
//
// # Determinism contract
//
// The simulator's hard invariant — output is a pure function of the
// inputs, never of the worker count — extends to the metrics snapshot:
//
//   - Counters, gauges and histograms are COUNTER-CLASS: their snapshot
//     values are byte-identical for every -jobs setting. Counters and
//     histogram buckets are unsigned integers accumulated with atomic
//     adds, which commute, so the sum is independent of scheduling order.
//     Gauges hold float64s but every writer uses a unique key (one gauge
//     per sweep point), so no ordering-dependent accumulation occurs.
//   - Timings are TIMING-CLASS: wall-clock measurements (worker busy
//     time, queue wait). They are explicitly non-deterministic and are
//     segregated in the snapshot under "timings_nondeterministic".
//
// Float64 values are never summed across goroutines into a shared cell
// outside the timing section: float addition does not associate, so an
// order-dependent float sum would silently break the contract.
//
// # Disabled-path cost
//
// The simulation layers keep no observability state of their own: every
// counter they keep is a window statistic, counted whether or not a
// registry is attached, and a registry only harvests those counters at
// window boundaries. The metric types, the tracer and the progress meter
// are nil-receiver safe, so an unset hook costs a predictable branch
// outside the hot loops. BenchmarkObsOverhead bounds what a harvest adds
// to a sample task (<2%).
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing uint64 metric. Atomic adds make
// concurrent accumulation from sweep workers commutative, hence
// deterministic. All methods are safe on a nil receiver (no-ops), so
// holders can gate instrumentation with a plain nil field.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-write-wins float64 metric. Deterministic only when
// every writer uses a unique key (the registry's convention: one gauge
// per sweep point); see the package determinism contract.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the stored value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into a fixed bucket layout: counts[i]
// holds observations v <= Bounds[i] (first matching bucket), and one
// overflow bucket holds the rest. Bucket counts are atomic uint64s, so
// concurrent observation is deterministic.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is overflow
}

// NewHistogram builds a histogram with the given ascending upper bounds.
func NewHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one observation of v.
func (h *Histogram) Observe(v float64) { h.ObserveN(v, 1) }

// ObserveN records n observations of v (bulk flush from a local counter).
func (h *Histogram) ObserveN(v float64, n uint64) {
	if h == nil || n == 0 {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(n)
}

// Timing accumulates wall-clock durations. Timing-class: values depend on
// the host and scheduling and are segregated in the snapshot.
type Timing struct {
	count atomic.Uint64
	ns    atomic.Int64
}

// Observe records one duration.
func (t *Timing) Observe(d time.Duration) {
	if t == nil {
		return
	}
	t.count.Add(1)
	t.ns.Add(int64(d))
}

// Registry is a concurrency-safe metrics registry. Instrumented layers
// resolve their metrics from it once (at attach/harvest time) and hold
// the returned pointers; the hot path then touches only those pointers
// behind nil checks. The zero value is not usable; construct with
// NewRegistry.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	timings  map[string]*Timing
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		timings:  make(map[string]*Timing),
	}
}

// Counter returns the named counter, creating it at zero on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket upper bounds on first use (later calls ignore bounds).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Timing returns the named wall-clock timing accumulator.
func (r *Registry) Timing(name string) *Timing {
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.timings[name]
	if !ok {
		t = &Timing{}
		r.timings[name] = t
	}
	return t
}

// HistogramSnapshot is the exported state of one histogram.
type HistogramSnapshot struct {
	// Bounds are the bucket upper bounds; Counts[i] holds observations
	// v <= Bounds[i], Counts[len(Bounds)] the overflow.
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Count  uint64    `json:"count"`
}

// TimingSnapshot is the exported state of one timing accumulator.
type TimingSnapshot struct {
	Count   uint64 `json:"count"`
	TotalNs int64  `json:"total_ns"`
}

// Snapshot is a point-in-time copy of a registry. The Counters, Gauges
// and Histograms sections are counter-class (deterministic across worker
// counts); Timings is timing-class and explicitly non-deterministic.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
	Timings    map[string]TimingSnapshot    `json:"timings_nondeterministic"`
}

// Snapshot copies the registry's current state.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:   make(map[string]uint64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
		Timings:    make(map[string]TimingSnapshot, len(r.timings)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		hs := HistogramSnapshot{Bounds: append([]float64(nil), h.bounds...)}
		hs.Counts = make([]uint64, len(h.counts))
		for i := range h.counts {
			hs.Counts[i] = h.counts[i].Load()
			hs.Count += hs.Counts[i]
		}
		s.Histograms[name] = hs
	}
	for name, t := range r.timings {
		s.Timings[name] = TimingSnapshot{Count: t.count.Load(), TotalNs: t.ns.Load()}
	}
	return s
}

// Merge folds a snapshot into the registry as if the work that produced
// it had been recorded here directly: counters, histogram buckets and
// timings add, gauges are set. Every metric in s is created even when
// its value is zero, so the merged key set matches a direct recording. A
// histogram whose bucket layout differs from the registry's existing one
// is an error, and the registry is left unchanged. Merge on a nil
// registry is a no-op.
func (r *Registry) Merge(s Snapshot) error {
	if r == nil {
		return nil
	}
	for name, hs := range s.Histograms { //ntclint:allow maprange validation only; the first mismatch aborts before any write
		if len(hs.Counts) != len(hs.Bounds)+1 {
			return fmt.Errorf("obs: merging histogram %q: %d counts for %d bounds", name, len(hs.Counts), len(hs.Bounds))
		}
		r.mu.Lock()
		h, ok := r.hists[name]
		r.mu.Unlock()
		if ok && !slices.Equal(h.bounds, hs.Bounds) {
			return fmt.Errorf("obs: merging histogram %q: bucket layout %v differs from %v", name, hs.Bounds, h.bounds)
		}
	}
	for name, v := range s.Counters { //ntclint:allow maprange commutative atomic adds; order cannot matter
		r.Counter(name).Add(v)
	}
	for name, v := range s.Gauges { //ntclint:allow maprange one write per distinct key
		r.Gauge(name).Set(v)
	}
	for name, hs := range s.Histograms { //ntclint:allow maprange commutative atomic adds; order cannot matter
		h := r.Histogram(name, hs.Bounds)
		for i, n := range hs.Counts {
			h.counts[i].Add(n)
		}
	}
	for name, ts := range s.Timings { //ntclint:allow maprange commutative atomic adds; order cannot matter
		t := r.Timing(name)
		t.count.Add(ts.Count)
		t.ns.Add(ts.TotalNs)
	}
	return nil
}

// Deterministic returns a copy of the snapshot with the timing-class
// section cleared — the portion covered by the determinism contract
// (byte-identical for every -jobs setting).
func (s Snapshot) Deterministic() Snapshot {
	s.Timings = map[string]TimingSnapshot{}
	return s
}

// WriteJSON writes the snapshot as indented JSON with deterministic key
// ordering (encoding/json sorts map keys), suitable for golden files and
// byte-level comparison of the counter-class sections.
func (snap Snapshot) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return fmt.Errorf("obs: encoding snapshot: %w", err)
	}
	b = append(b, '\n')
	if _, err := w.Write(b); err != nil {
		return fmt.Errorf("obs: writing snapshot: %w", err)
	}
	return nil
}

// WriteJSON snapshots the registry and writes it (see Snapshot.WriteJSON).
func (r *Registry) WriteJSON(w io.Writer) error {
	return r.Snapshot().WriteJSON(w)
}
