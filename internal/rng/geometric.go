package rng

import "math"

const (
	// geomGuideBits is log2 of the guide's entry count. The guide is
	// indexed by the top bits of the 53-bit uniform m a draw consumes.
	geomGuideBits  = 12
	geomGuideShift = 53 - geomGuideBits
	// geomMaxK is the largest deviate the guide stores; larger ones (the
	// distribution's tail) always take the reference formula.
	geomMaxK = 64
)

// Geometric is an immutable geometric sampler with success probability p:
// a draw is the number of trials up to and including the first success, in
// {1, 2, ...}. Build it with NewGeometric and draw with Stream.Geometric.
// Used for register dependency distances and OS burst lengths.
//
// The reference draw is the inverse CDF floor(log(1-u)/log(1-p)) + 1 at
// u = m/2^53, with m the top 53 bits of one Uint64 (exactly what Float64
// returns). A 2^12-entry guide indexed by m>>41 holds k for every bucket
// in which all m provably draw k; the other buckets (those straddling or
// near a threshold, and the tail above geomMaxK) hold 0 and fall back to
// the reference formula, so every draw returns the reference value.
type Geometric struct {
	one   bool    // p >= 1: every draw is 1 and consumes nothing
	logQ  float64 // math.Log(1-p), the reference formula's divisor
	guide [1 << geomGuideBits]uint8
}

// NewGeometric returns the geometric sampler for success probability p in
// (0, 1]. Samplers are cached per p: the first call for a given p builds
// the guide, later calls return the same immutable sampler.
func NewGeometric(p float64) *Geometric {
	if !(p > 0) {
		panic("rng: NewGeometric with p <= 0")
	}
	return shared(&tables.geo, math.Float64bits(p), func() *Geometric { return newGeometric(p) })
}

// Geometric returns the next deviate of g, consuming one Uint64 (none when
// p >= 1).
func (s *Stream) Geometric(g *Geometric) int {
	if g.one {
		return 1
	}
	return g.draw(s.Uint64() >> 11)
}

// draw returns the deviate drawn by the 53-bit uniform m.
func (g *Geometric) draw(m uint64) int {
	if k := g.guide[m>>geomGuideShift]; k != 0 {
		return int(k)
	}
	return g.inverseCDF(m)
}

// inverseCDF is the reference draw for the uniform u = m/2^53.
func (g *Geometric) inverseCDF(m uint64) int {
	u := float64(m) / (1 << 53)
	// u in [0,1) keeps the argument to Log positive.
	k := int(math.Floor(math.Log(1-u)/g.logQ)) + 1
	if k < 1 {
		k = 1
	}
	return k
}

// newGeometric builds the sampler for p > 0 without consulting the cache.
//
// Exactness of the guide. Let q(m) = ln(1-m/2^53)/ln(1-p) be the exact
// quotient (1-u is exact in float64, and 1-p is rounded the same way the
// reference rounds it) and q̂(m) the computed one. Two Log calls, each
// within 1 ulp (math.Log's documented bound), and one rounded division
// put q̂ within 2.5 ulps of q, relatively; relErr takes 4. Near the
// threshold of any k <= geomMaxK, q <= geomMaxK+1, so |q̂-q| <= errAbs.
// q grows by at least 1/(2^53·|ln(1-p)|) per unit of m, so q̂ crosses k
// within d = errAbs·2^53·|ln(1-p)| of the exact crossing, and the binary
// search's thr[k] lies within d+1 of it too. Any m more than 2d+1 below
// thr[k] therefore has q̂ < k, and any m more than 2d+1 above thr[k-1] has
// q̂ >= k-1. The band is twice 2d plus 64, and a bucket gets k only if it
// lies inside [thr[k-1]+band, thr[k]-band].
func newGeometric(p float64) *Geometric {
	g := &Geometric{}
	if p >= 1 {
		g.one = true
		return g
	}
	g.logQ = math.Log(1 - p)
	if !(g.logQ < 0) {
		// 1-p rounds to 1: no guide, every draw takes the formula.
		return g
	}
	thr, band := g.thresholds()
	for j := range g.guide {
		first := uint64(j) << geomGuideShift
		last := first + 1<<geomGuideShift - 1
		for k := 1; k <= geomMaxK; k++ {
			// k == 1 has no lower threshold: every draw is at least 1.
			if (k == 1 || first >= thr[k-1]+band) && last+band < thr[k] {
				g.guide[j] = uint8(k)
				break
			}
		}
	}
	return g
}

// thresholds returns thr, where thr[k] is the first m whose reference draw
// exceeds k (thr[0] = 0, and 2^53 means none), and the guard band around
// each threshold inside which the guide defers to the reference formula.
// g.logQ must be negative.
func (g *Geometric) thresholds() (thr [geomMaxK + 1]uint64, band uint64) {
	const (
		relErr = 4 * 0x1p-52
		errAbs = (geomMaxK + 1) * relErr
	)
	d := errAbs * 0x1p53 * -g.logQ
	band = uint64(4*d) + 64
	for k := 1; k <= geomMaxK; k++ {
		lo, hi := uint64(0), uint64(1)<<53
		for lo < hi {
			mid := lo + (hi-lo)/2
			if g.inverseCDF(mid) > k {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		thr[k] = lo
	}
	return thr, band
}
