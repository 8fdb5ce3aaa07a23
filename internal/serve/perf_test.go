package serve

// Tests for the zero-allocation optimization contract of the DES hot
// path: the concrete departure heap, the lazy busy-time integral, the
// load-snapshot elision for oblivious balancers, and the
// testing.AllocsPerRun gates that keep the steady-state event path
// allocation-free.

import (
	"context"
	"reflect"
	"testing"
	"time"

	"ntcsim/internal/rng"
)

// TestDepHeapOrdering drives the hand-rolled heap with an adversarial
// push/pop interleaving and checks the one property the event loop needs:
// elements pop in strictly increasing (t, seq) order regardless of the
// insertion order.
func TestDepHeapOrdering(t *testing.T) {
	r := rng.New(4242)
	var h depHeap
	var seq uint64
	popped := make([]departure, 0, 4096)
	for round := 0; round < 4096; round++ {
		if len(h) == 0 || r.Float64() < 0.55 {
			seq++
			h.push(departure{
				// Coarse quantization forces plenty of equal-t ties so the
				// seq tiebreak is exercised, not just the time ordering.
				t:   time.Duration(r.Intn(64)) * time.Millisecond,
				seq: seq,
			})
		} else {
			popped = append(popped, h.popMin())
		}
	}
	for len(h) > 0 {
		popped = append(popped, h.popMin())
	}
	if uint64(len(popped)) != seq {
		t.Fatalf("popped %d of %d pushed", len(popped), seq)
	}
	// Push-only then full drain: the popped sequence must be globally
	// sorted by (t, seq). (The interleaved phase above exercises the
	// invariant maintenance; sortedness is only globally checkable when
	// nothing is pushed mid-drain.)
	h = h[:0]
	r2 := rng.New(4242)
	var seq2 uint64
	for i := 0; i < 4096; i++ {
		seq2++
		h.push(departure{t: time.Duration(r2.Intn(64)) * time.Millisecond, seq: seq2})
	}
	prev := h.popMin()
	for len(h) > 0 {
		cur := h.popMin()
		if cur.t < prev.t || (cur.t == prev.t && cur.seq <= prev.seq) {
			t.Fatalf("heap order violated: (%v,%d) popped after (%v,%d)", cur.t, cur.seq, prev.t, prev.seq)
		}
		prev = cur
	}
}

// loadForcer wraps a load-oblivious balancer and forces the Sim down the
// fresh-snapshot path (NeedsLoads true), while still never reading the
// loads itself. Running the same scenario with and without the forcer
// isolates exactly the elision: the results must be bit-identical.
type loadForcer struct{ Balancer }

func (loadForcer) NeedsLoads() bool { return true }

// TestLoadElisionUnchanged verifies the load-snapshot elision is
// unobservable: for every oblivious balancer, the elided run equals the
// forced-fill run field for field.
func TestLoadElisionUnchanged(t *testing.T) {
	for _, mk := range []func() Balancer{NewRandom, NewRoundRobin} {
		name := mk().Name()
		run := func(bal Balancer) Result {
			cfg := testConfig(t)
			cfg.Balancer = bal
			sim, err := New(cfg, rng.New(321))
			if err != nil {
				t.Fatal(err)
			}
			res, err := sim.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		elided := run(mk())
		forced := run(loadForcer{mk()})
		if !reflect.DeepEqual(elided, forced) {
			t.Fatalf("%s: elided run diverged from forced-fill run:\nelided %+v\nforced %+v", name, elided, forced)
		}
	}
}

// TestNeedsLoadsProbe pins the capability wiring: the oblivious balancers
// opt out, the load-aware ones stay on the fresh-snapshot path.
func TestNeedsLoadsProbe(t *testing.T) {
	cases := []struct {
		bal  Balancer
		want bool
	}{
		{NewRandom(), false},
		{NewRoundRobin(), false},
		{NewLeastLoaded(), true},
		{NewJSQ(), true},
		{loadForcer{NewRandom()}, true},
	}
	for _, c := range cases {
		if got := needsLoads(c.bal); got != c.want {
			t.Errorf("needsLoads(%s) = %v, want %v", c.bal.Name(), got, c.want)
		}
	}
}

// warmSteadyState builds a Sim on a long flat trace and drives it deep
// into the first epoch so every growable structure (departure heap, FIFO
// rings, sketch buckets, queue capacity) has reached its steady-state
// footprint. The trace step is one hour, so the measured window that
// follows stays strictly inside the epoch: every event is an arrival or
// a departure, the exact path the 0 allocs/op budget covers.
func warmSteadyState(t *testing.T, bal Balancer) *Sim {
	spec := testGov(t, 2, 4)
	cfg := Config{
		Gov:      spec,
		Policy:   Static{FreqHz: 2.0e9},
		Balancer: bal,
		Trace:    constTrace(300, 2, time.Hour),
	}
	s, err := New(cfg, rng.New(2026))
	if err != nil {
		t.Fatal(err)
	}
	// Pre-grow the latency sketch past any bucket steady-state traffic
	// can reach, so a once-in-a-run tail observation cannot show up as a
	// fractional allocation in the gate.
	s.sketch.Observe(10 * time.Minute)
	for i := 0; i < 60_000; i++ {
		ok, err := s.advance()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatal("trace exhausted during warmup")
		}
	}
	return s
}

// TestSteadyStateEventPathAllocs is the optimization contract for the
// event loop: once warm, processing arrivals and departures — heap
// scheduling, FIFO queueing, latency observation, busy-time settling —
// performs zero heap allocations per event, for both a load-aware and a
// load-oblivious balancer.
func TestSteadyStateEventPathAllocs(t *testing.T) {
	for _, mk := range []func() Balancer{NewJSQ, NewRandom} {
		name := mk().Name()
		s := warmSteadyState(t, mk())
		allocs := testing.AllocsPerRun(20_000, func() {
			ok, err := s.advance()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatal("trace exhausted during measurement")
			}
		})
		if allocs != 0 {
			t.Errorf("%s: steady-state event path allocates %.4f allocs/event, want 0", name, allocs)
		}
	}
}

// TestSketchObserveAllocs gates Sketch.Observe: once the bucket slice has
// grown to cover the observed range, recording a latency is allocation-
// free.
func TestSketchObserveAllocs(t *testing.T) {
	s := NewSketch()
	s.Observe(time.Minute) // pre-grow
	lat := []time.Duration{time.Microsecond, time.Millisecond, 20 * time.Millisecond, time.Second}
	i := 0
	allocs := testing.AllocsPerRun(10_000, func() {
		s.Observe(lat[i&3])
		i++
	})
	if allocs != 0 {
		t.Fatalf("Sketch.Observe allocates %.4f allocs/op, want 0", allocs)
	}
}
