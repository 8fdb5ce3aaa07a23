package serve

import (
	"math"
	"testing"
	"time"

	"ntcsim/internal/governor"
	"ntcsim/internal/rng"
)

// FuzzArrivalGen hardens the thinning generator against arbitrary traces:
// for any step duration, rate levels (including NaN, Inf, negatives) and
// seed, arrival times must be strictly increasing, non-negative, inside
// the horizon, and the generator must never panic or loop forever. Run
// the full fuzzer with
//
//	go test -fuzz=FuzzArrivalGen ./internal/serve
func FuzzArrivalGen(f *testing.F) {
	f.Add(int64(time.Second), 100.0, 200.0, 0.0, 50.0, uint64(1))
	f.Add(int64(time.Millisecond), 1e6, 1e6, 1e6, 1e6, uint64(2))
	f.Add(int64(0), 100.0, 100.0, 100.0, 100.0, uint64(3))
	f.Add(int64(-5), -1.0, math.Inf(1), math.NaN(), 1e300, uint64(4))
	f.Add(int64(time.Minute), 0.0, 0.0, 0.0, 0.0, uint64(5))
	f.Fuzz(func(t *testing.T, stepNs int64, l0, l1, l2, l3 float64, seed uint64) {
		// Bound the horizon, not the rate space: generation cost scales
		// with lamMax*horizon (see maxArrivalRate), so a fuzzed step in
		// the hours would only test patience. Negative steps pass through
		// untouched — they must yield an exhausted generator.
		if stepNs > int64(100*time.Millisecond) {
			stepNs %= int64(100 * time.Millisecond)
		}
		tr := governor.LoadTrace{
			Step:   time.Duration(stepNs),
			Lambda: []float64{l0, l1, l2, l3},
		}
		g := NewArrivalGen(tr, rng.New(seed))
		prev := time.Duration(-1)
		for i := 0; i < 500_000; i++ {
			at, ok := g.Next()
			if !ok {
				if _, again := g.Next(); again {
					t.Fatal("generator revived after exhaustion")
				}
				return
			}
			if at <= prev {
				t.Fatalf("arrival %d at %v not after %v", i, at, prev)
			}
			if at < 0 || at >= horizon(tr) {
				t.Fatalf("arrival %d at %v outside horizon %v", i, at, horizon(tr))
			}
			prev = at
		}
		// 500k arrivals inside a <=400ms horizon means the rate cap is
		// broken (max 1e6/s * 0.4s = 400k).
		t.Fatal("generator exceeded the capped arrival budget")
	})
}
