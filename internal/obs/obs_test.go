package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilSafety: every hot-path method must be a no-op on a nil
// receiver — that is the whole disabled-path contract.
func TestNilSafety(t *testing.T) {
	var c *Counter
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter must read 0")
	}
	var g *Gauge
	g.Set(1.5)
	if g.Value() != 0 {
		t.Fatal("nil gauge must read 0")
	}
	var h *Histogram
	h.Observe(3)
	h.ObserveN(3, 10)
	if h.Count() != 0 {
		t.Fatal("nil histogram must count 0")
	}
	var tm *Timing
	tm.Observe(time.Second)
	if tm.Total() != 0 {
		t.Fatal("nil timing must total 0")
	}
	var tr *Tracer
	tr.Complete("c", "n", tr.AcquireLane(), time.Now(), time.Millisecond, nil)
	tr.Instant("c", "n", 0, nil)
	tr.ReleaseLane(1)
	if err := tr.Close(); err != nil {
		t.Fatalf("nil tracer Close: %v", err)
	}
	var p *Progress
	p.Add(3)
	p.Done("x", time.Millisecond)
}

// TestCounterConcurrent: concurrent atomic adds must sum exactly,
// independent of interleaving — the basis of the determinism contract.
func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers, per = 8, 10_000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("shared")
			for i := 0; i < per; i++ {
				c.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
}

func TestRegistryReturnsSameMetric(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Fatal("same name must return the same counter")
	}
	if r.Gauge("g") != r.Gauge("g") {
		t.Fatal("same name must return the same gauge")
	}
	if r.Histogram("h", []float64{1, 2}) != r.Histogram("h", nil) {
		t.Fatal("same name must return the same histogram (bounds ignored after creation)")
	}
	if r.Timing("t") != r.Timing("t") {
		t.Fatal("same name must return the same timing")
	}
}

// TestHistogramBuckets pins the bucketing rule: counts[i] holds v <=
// bounds[i], with one overflow bucket past the last bound.
func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 100} {
		h.Observe(v)
	}
	want := []uint64{2, 2, 2, 2} // (<=1)=2, (<=2)=2, (<=4)=2, overflow=2
	for i, w := range want {
		if got := h.counts[i].Load(); got != w {
			t.Fatalf("bucket %d = %d, want %d", i, got, w)
		}
	}
	if h.Count() != 8 {
		t.Fatalf("count = %d, want 8", h.Count())
	}
	h.ObserveN(0, 5)
	if got := h.counts[0].Load(); got != 7 {
		t.Fatalf("ObserveN: bucket 0 = %d, want 7", got)
	}
}

// TestSnapshotJSONDeterministic: two registries populated in different
// insertion orders must serialize byte-identically — map key order must
// not leak into the snapshot.
func TestSnapshotJSONDeterministic(t *testing.T) {
	build := func(names []string) string {
		r := NewRegistry()
		for _, n := range names {
			r.Counter("c." + n).Add(uint64(len(n)))
			r.Gauge("g." + n).Set(float64(len(n)) / 2)
			r.Histogram("h."+n, []float64{1, 10}).Observe(float64(len(n)))
		}
		var buf bytes.Buffer
		if err := r.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a := build([]string{"alpha", "beta", "gamma", "delta"})
	b := build([]string{"delta", "gamma", "beta", "alpha"})
	if a != b {
		t.Fatalf("snapshot JSON depends on insertion order:\n%s\nvs\n%s", a, b)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(a), &snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	if !strings.Contains(a, `"timings_nondeterministic"`) {
		t.Fatal("snapshot must segregate timings under timings_nondeterministic")
	}
}

// TestSnapshotDeterministicStripsTimings: the Deterministic() view used
// for cross-jobs comparison must drop the timing-class section and only
// that section.
func TestSnapshotDeterministicStripsTimings(t *testing.T) {
	r := NewRegistry()
	r.Counter("keep").Add(7)
	r.Timing("drop").Observe(time.Second)
	d := r.Snapshot().Deterministic()
	if len(d.Timings) != 0 {
		t.Fatal("Deterministic() must clear the timing section")
	}
	if d.Counters["keep"] != 7 {
		t.Fatal("Deterministic() must keep counter-class sections")
	}
}

// TestMergeMatchesDirectRecording: recording into one registry and
// merging its snapshot into another that already holds data gives the
// snapshot of recording everything into one registry directly, zero
// metrics included; a histogram with another bucket layout is refused
// without touching the registry.
func TestMergeMatchesDirectRecording(t *testing.T) {
	record := func(r *Registry, scale uint64) {
		r.Counter("c").Add(3 * scale)
		r.Counter("zero")
		r.Gauge(fmt.Sprintf("g%d", scale)).Set(float64(scale) / 4)
		r.Histogram("h", []float64{1, 10}).ObserveN(float64(scale), scale)
		r.Timing("t").Observe(time.Duration(scale))
	}
	direct := NewRegistry()
	record(direct, 1)
	record(direct, 20)

	merged, part := NewRegistry(), NewRegistry()
	record(merged, 1)
	record(part, 20)
	if err := merged.Merge(part.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if got, want := merged.Snapshot(), direct.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("merged snapshot %+v, direct %+v", got, want)
	}

	before := merged.Snapshot()
	bad := NewRegistry()
	bad.Counter("c").Add(1)
	bad.Histogram("h", []float64{2, 10}).Observe(1)
	if err := merged.Merge(bad.Snapshot()); err == nil {
		t.Fatal("merging a histogram with another bucket layout must fail")
	}
	if !reflect.DeepEqual(merged.Snapshot(), before) {
		t.Fatal("a refused merge changed the registry")
	}
	var nilReg *Registry
	if err := nilReg.Merge(direct.Snapshot()); err != nil {
		t.Fatalf("Merge on a nil registry: %v", err)
	}
}

func TestTimingAccumulates(t *testing.T) {
	r := NewRegistry()
	tm := r.Timing("t")
	tm.Observe(time.Second)
	tm.Observe(2 * time.Second)
	if tm.Total() != 3*time.Second {
		t.Fatalf("total = %v, want 3s", tm.Total())
	}
	snap := r.Snapshot()
	ts := snap.Timings["t"]
	if ts.Count != 2 || ts.TotalNs != int64(3*time.Second) {
		t.Fatalf("timing snapshot = %+v", ts)
	}
}
