package serve

import (
	"math"
	"time"
)

// Sketch parameters. Bucket i of the sketch covers the latency interval
// (unit*gamma^(i-1), unit*gamma^i]; bucket 0 absorbs everything at or
// below one unit. With gamma = 1.02 the worst-case relative error of a
// reported quantile is (gamma-1)/(gamma+1) < 1%, far inside the 15%
// agreement band the analytic cross-validation demands, and a request
// that waits a full minute still lands below bucket ~905 — the counts
// stay a small flat slice.
const (
	sketchGamma = 1.02
	sketchUnit  = time.Microsecond
)

// sketchInvLogGamma is 1/ln(gamma), hoisted out of bucketOf so the per-
// observation cost is one Log, one multiply and one Ceil instead of two
// transcendental calls. Computed once at package init; bucket assignment
// is pinned against the pre-hoist division form by TestBucketLadder.
var sketchInvLogGamma = 1 / math.Log(sketchGamma)

// Sketch is a streaming quantile estimator over request latencies in the
// DDSketch style: logarithmically spaced buckets with a guaranteed
// RELATIVE error bound, so p50 of a 2ms workload and p99.9 of a 2s
// overload are captured by the same structure at the same accuracy.
//
// The sketch is exact-deterministic: observations only increment integer
// bucket counts, so the state after n observations is independent of
// timing, and Quantile is a pure function of the counts.
type Sketch struct {
	counts []uint64
	total  uint64
}

// NewSketch returns an empty sketch.
func NewSketch() *Sketch { return &Sketch{} }

// bucketOf maps a latency to its bucket index.
func bucketOf(d time.Duration) int {
	if d <= sketchUnit {
		return 0
	}
	v := float64(d) / float64(sketchUnit)
	return int(math.Ceil(math.Log(v) * sketchInvLogGamma))
}

// bucketValue returns the representative latency of bucket i: the log-
// midpoint 2*gamma^i/(1+gamma) scaled by the unit (the unit itself for
// bucket 0), matching the estimator Quantile always used.
func bucketValue(i int) time.Duration {
	if i == 0 {
		return sketchUnit
	}
	mid := 2 * math.Pow(sketchGamma, float64(i)) / (1 + sketchGamma)
	return time.Duration(mid * float64(sketchUnit))
}

// Observe records one latency.
func (s *Sketch) Observe(d time.Duration) {
	i := bucketOf(d)
	if i >= len(s.counts) {
		grown := make([]uint64, i+1)
		copy(grown, s.counts)
		s.counts = grown
	}
	s.counts[i]++
	s.total++
}

// Quantile returns the q-quantile estimate (q clamped to [0, 1]); 0 when
// the sketch is empty. The estimate is the log-midpoint of the bucket
// holding the rank-ceil(q*n) observation, so its relative error is
// bounded by (gamma-1)/(gamma+1).
func (s *Sketch) Quantile(q float64) time.Duration {
	if s.total == 0 {
		return 0
	}
	if math.IsNaN(q) || q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(s.total)))
	if rank < 1 {
		rank = 1
	}
	// float64(total) is inexact above 2^53, so ceil(q*total) can land
	// ABOVE total (e.g. q=1 with total=2^53+3 rounds up) and no cumulative
	// count would ever reach it. Clamp the rank into the population.
	if rank > s.total {
		rank = s.total
	}
	var cum uint64
	for i, c := range s.counts {
		cum += c
		if cum >= rank {
			return bucketValue(i)
		}
	}
	// Defensive fallback: the clamp above makes the scan find a bucket
	// (cum reaches total >= rank), but if the invariants are ever broken
	// report the last non-empty bucket instead of a silent zero.
	for i := len(s.counts) - 1; i >= 0; i-- {
		if s.counts[i] != 0 {
			return bucketValue(i)
		}
	}
	return 0
}
