package serve

import (
	"math"
	"testing"
	"time"

	"ntcsim/internal/governor"
	"ntcsim/internal/rng"
)

// horizon is the trace's simulated length: Step times the step count.
func horizon(tr governor.LoadTrace) time.Duration {
	return tr.Step * time.Duration(len(tr.Lambda))
}

func TestArrivalsStrictlyIncreasingInsideHorizon(t *testing.T) {
	tr := constTrace(500, 20, time.Second)
	g := NewArrivalGen(tr, rng.New(11))
	prev := time.Duration(-1)
	n := 0
	for {
		at, ok := g.Next()
		if !ok {
			break
		}
		if at <= prev {
			t.Fatalf("arrival %d at %v not after %v", n, at, prev)
		}
		if at >= horizon(tr) {
			t.Fatalf("arrival at %v outside horizon %v", at, horizon(tr))
		}
		prev = at
		n++
	}
	if n == 0 {
		t.Fatal("no arrivals")
	}
	// Exhausted generators stay exhausted.
	if _, ok := g.Next(); ok {
		t.Fatal("generator revived after exhaustion")
	}
}

// TestArrivalRateMatchesTrace: the thinned process must reproduce the
// trace's rate — globally and per-step for a two-level trace — within
// Poisson sampling noise (4 sigma).
func TestArrivalRateMatchesTrace(t *testing.T) {
	step := time.Second
	tr := governor.LoadTrace{Step: step, Lambda: make([]float64, 40)}
	for i := range tr.Lambda {
		tr.Lambda[i] = 200
		if i >= 20 {
			tr.Lambda[i] = 1000
		}
	}
	g := NewArrivalGen(tr, rng.New(5))
	var lo, hi int
	for {
		at, ok := g.Next()
		if !ok {
			break
		}
		if at < step*20 {
			lo++
		} else {
			hi++
		}
	}
	checkCount := func(name string, got int, mean float64) {
		t.Helper()
		if dev := math.Abs(float64(got) - mean); dev > 4*math.Sqrt(mean) {
			t.Fatalf("%s phase: %d arrivals, want %v +- %v", name, got, mean, 4*math.Sqrt(mean))
		}
	}
	checkCount("low", lo, 200*20)
	checkCount("high", hi, 1000*20)
}

func TestArrivalGenDegenerateTraces(t *testing.T) {
	cases := []struct {
		name  string
		trace governor.LoadTrace
	}{
		{"empty", governor.LoadTrace{}},
		{"zero step", governor.LoadTrace{Step: 0, Lambda: []float64{100}}},
		{"negative step", governor.LoadTrace{Step: -time.Second, Lambda: []float64{100}}},
		{"all zero", constTrace(0, 5, time.Second)},
		{"all NaN", governor.LoadTrace{Step: time.Second, Lambda: []float64{math.NaN(), math.NaN()}}},
		{"all negative", governor.LoadTrace{Step: time.Second, Lambda: []float64{-5, -1e9}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := NewArrivalGen(tc.trace, rng.New(1))
			if at, ok := g.Next(); ok {
				t.Fatalf("degenerate trace produced arrival at %v", at)
			}
		})
	}
}

func TestArrivalGenSanitizesMixedTrace(t *testing.T) {
	tr := governor.LoadTrace{
		Step:   100 * time.Millisecond,
		Lambda: []float64{math.NaN(), -50, math.Inf(1), 1000, 0},
	}
	g := NewArrivalGen(tr, rng.New(9))
	prev := time.Duration(-1)
	for {
		at, ok := g.Next()
		if !ok {
			break
		}
		if at <= prev || at < 0 || at >= horizon(tr) {
			t.Fatalf("sanitized trace produced bad arrival %v (prev %v)", at, prev)
		}
		prev = at
	}
}
