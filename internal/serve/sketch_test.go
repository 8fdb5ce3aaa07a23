package serve

import (
	"math"
	"sort"
	"testing"
	"time"

	"ntcsim/internal/rng"
)

func TestSketchEmpty(t *testing.T) {
	s := NewSketch()
	if got := s.Quantile(0.99); got != 0 {
		t.Fatalf("empty sketch quantile = %v, want 0", got)
	}
	if s.total != 0 {
		t.Fatal("empty sketch has nonzero count")
	}
}

// TestSketchRelativeError checks the advertised bound: every reported
// quantile is within (gamma-1)/(gamma+1) of the exact sample quantile,
// across three orders of magnitude of latency.
func TestSketchRelativeError(t *testing.T) {
	r := rng.New(77)
	s := NewSketch()
	vals := make([]time.Duration, 0, 20000)
	for i := 0; i < 20000; i++ {
		// Lognormal latencies spanning ~100us..~1s.
		d := time.Duration(math.Exp(math.Log(5e6) + 1.2*r.NormFloat64()))
		s.Observe(d)
		vals = append(vals, d)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	bound := (sketchGamma - 1) / (sketchGamma + 1)
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99, 0.999} {
		rank := int(math.Ceil(q*float64(len(vals)))) - 1
		exact := float64(vals[rank])
		got := float64(s.Quantile(q))
		if relErr := math.Abs(got-exact) / exact; relErr > bound+1e-9 {
			t.Fatalf("q=%v: sketch %v vs exact %v, rel err %.4f > bound %.4f",
				q, time.Duration(got), time.Duration(exact), relErr, bound)
		}
	}
}

func TestSketchMonotoneInQ(t *testing.T) {
	r := rng.New(3)
	s := NewSketch()
	for i := 0; i < 5000; i++ {
		s.Observe(time.Duration(r.Exponential(10e6)))
	}
	prev := time.Duration(-1)
	for q := 0.0; q <= 1.0; q += 0.05 {
		v := s.Quantile(q)
		if v < prev {
			t.Fatalf("quantile not monotone: q=%v gives %v after %v", q, v, prev)
		}
		prev = v
	}
}

func TestSketchClampsPathologicalInputs(t *testing.T) {
	s := NewSketch()
	s.Observe(0)                // floor bucket
	s.Observe(-time.Second)     // negative: floor bucket, no panic
	s.Observe(time.Microsecond) // exactly one unit
	s.Observe(time.Hour)
	if s.total != 4 {
		t.Fatalf("count = %d, want 4", s.total)
	}
	if got := s.Quantile(0.1); got != sketchUnit {
		t.Fatalf("floor-bucket quantile = %v, want %v", got, sketchUnit)
	}
	if got := s.Quantile(math.NaN()); got != sketchUnit {
		t.Fatalf("NaN quantile should clamp to q=0, got %v", got)
	}
	if got := s.Quantile(5); got < time.Hour/2 {
		t.Fatalf("q>1 should clamp to max, got %v", got)
	}
}

// TestBucketLadder pins bucketOf for a ladder of latencies from
// sub-microsecond to a full minute, including the exact neighborhoods of
// a spread of bucket boundaries (unit*gamma^i for i up to 905). The
// expected indices were generated with the pre-optimization formula
// ceil(ln(v)/ln(gamma)); the hoisted-reciprocal form must reproduce every
// one of them, proving bucket assignment — and therefore every golden
// that embeds a quantile — is unchanged by the hoist.
func TestBucketLadder(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{1, 0}, {500, 0}, {1000, 0}, {1001, 1},
		{2000, 36}, {5000, 82}, {10000, 117}, {50000, 198},
		{100000, 233}, {500000, 314}, {1000000, 349}, {2000000, 384},
		{5000000, 431}, {10000000, 466}, {20000000, 501}, {50000000, 547},
		{100000000, 582}, {200000000, 617}, {500000000, 663},
		{1000000000, 698}, {2000000000, 733}, {5000000000, 779},
		{10000000000, 814}, {60000000000, 905},
		// Boundary neighborhoods: (below, at, above) for buckets
		// 1, 2, 3, 5, 10, 50, 100, 200, 350, 500, 700 and 905.
		{1019, 1}, {1020, 1}, {1021, 2},
		{1039, 2}, {1040, 2}, {1041, 3},
		{1060, 3}, {1061, 3}, {1062, 4},
		{1103, 5}, {1104, 5}, {1105, 6},
		{1217, 10}, {1218, 10}, {1219, 11},
		{2690, 50}, {2691, 50}, {2692, 51},
		{7243, 100}, {7244, 100}, {7245, 101},
		{52483, 200}, {52484, 200}, {52485, 201},
		{1023433, 350}, {1023434, 350}, {1023435, 351},
		{19956568, 500}, {19956569, 500}, {19956570, 501},
		{1047418482, 700}, {1047418483, 700}, {1047418484, 701},
		{60695353410, 905}, {60695353411, 905}, {60695353412, 906},
	}
	for _, c := range cases {
		if got := bucketOf(c.d); got != c.want {
			t.Errorf("bucketOf(%v) = %d, want %d", c.d, got, c.want)
		}
	}
	// The hoisted constant must be exactly the reciprocal it replaces.
	if want := 1 / math.Log(sketchGamma); sketchInvLogGamma != want {
		t.Fatalf("sketchInvLogGamma = %v, want %v", sketchInvLogGamma, want)
	}
}

// TestQuantileRankClampHugeCounts is the regression test for the q=1
// rounding edge: with more than 2^53 observations, float64(total) rounds
// up, ceil(1.0*total) exceeds the integer total, and the pre-fix scan
// fell off the end of the counts into the "unreachable" return 0. The
// clamp must pin the rank to the population and report the last bucket.
func TestQuantileRankClampHugeCounts(t *testing.T) {
	// 2^53+3 rounds to 2^53+4 as a float64, so ceil(q*total) > total.
	total := uint64(1<<53 + 3)
	s := &Sketch{counts: []uint64{total - 1, 1}, total: total}
	if got, want := s.Quantile(1), bucketValue(1); got != want {
		t.Fatalf("q=1 at total=2^53+3 = %v, want last bucket value %v", got, want)
	}
	// The same clamp must leave ordinary populations untouched.
	small := &Sketch{counts: []uint64{3, 1}, total: 4}
	if got, want := small.Quantile(1), bucketValue(1); got != want {
		t.Fatalf("q=1 small = %v, want %v", got, want)
	}
	if got, want := small.Quantile(0.5), bucketValue(0); got != want {
		t.Fatalf("q=0.5 small = %v, want %v", got, want)
	}
}

// TestQuantileFallbackLastNonEmpty drives the defensive fallback: if the
// counts ever undershoot total (a broken invariant), Quantile reports the
// last non-empty bucket rather than a silent zero.
func TestQuantileFallbackLastNonEmpty(t *testing.T) {
	s := &Sketch{counts: []uint64{2, 5, 0}, total: 100}
	if got, want := s.Quantile(0.99), bucketValue(1); got != want {
		t.Fatalf("fallback = %v, want last non-empty bucket %v", got, want)
	}
}
