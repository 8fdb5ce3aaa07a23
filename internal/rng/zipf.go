package rng

import "math"

// zipfMaxGuideBits caps the Zipf guide at 2^16+1 entries.
const zipfMaxGuideBits = 16

// Zipf draws ranks in [0, n) with probability proportional to
// 1/(rank+1)^theta, via inverse-CDF over a precomputed table.
type Zipf struct {
	t *zipfTable
	s Stream // held by value: one fewer pointer hop per draw
}

// zipfTable is the immutable, shared part of a Zipf sampler.
type zipfTable struct {
	cdf []float64
	// guide[j] is the first rank whose cdf >= j/G, G = len(guide)-1 (n-1
	// when there is none, as the binary search over the whole table
	// returns). A uniform u in [j/G, (j+1)/G) therefore draws a rank in
	// [guide[j], guide[j+1]]: the CDF is non-decreasing, so the first rank
	// with cdf >= u cannot precede the one for j/G or follow the one for
	// (j+1)/G.
	guide []int32
	shift uint // 53 - log2(G): m>>shift is the guide bucket of u = m/2^53
}

// NewZipf builds a Zipf sampler over n ranks with exponent theta >= 0
// drawing from its own copy of stream s, so draws from either never
// advance the other. theta == 0 degenerates to uniform.
//
// The CDF table and its guide depend only on (n, theta): the first call
// for a pair builds them, later calls share them read-only, so the
// sampler's only own state is its stream. Next returns exactly the rank a
// binary search over the whole CDF returns, searching only the guide
// bucket of its uniform.
func NewZipf(s *Stream, n int, theta float64) *Zipf {
	if n <= 0 {
		panic("rng: NewZipf with n <= 0")
	}
	key := zipfKey{n: n, theta: math.Float64bits(theta)}
	t := shared(&tables.zipf, key, func() *zipfTable { return newZipfTable(n, theta) })
	return &Zipf{t: t, s: *s}
}

// newZipfTable builds the table for n > 0 ranks without consulting the
// cache.
func newZipfTable(n int, theta float64) *zipfTable {
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), theta)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	bits := 0
	for bits < zipfMaxGuideBits && 1<<bits < n {
		bits++
	}
	buckets := 1 << bits
	guide := make([]int32, buckets+1)
	r := 0
	for j := range guide {
		// j/G is exact: G is a power of two.
		u := float64(j) / float64(buckets)
		for r < n-1 && cdf[r] < u {
			r++
		}
		guide[j] = int32(r)
	}
	return &zipfTable{cdf: cdf, guide: guide, shift: uint(53 - bits)}
}

// Next returns the next rank in [0, n).
func (z *Zipf) Next() int {
	return z.t.rank(z.s.Uint64() >> 11)
}

// rank returns the rank drawn by the 53-bit uniform m.
func (t *zipfTable) rank(m uint64) int {
	u := float64(m) / (1 << 53) // Float64's value for this draw
	j := m >> t.shift
	// Binary search for the first cdf entry >= u within the bucket.
	lo, hi := int(t.guide[j]), int(t.guide[j+1])
	for lo < hi {
		mid := (lo + hi) / 2
		if t.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
