package rng

import "math"

// Threshold returns the integer form of the probability test Bool(p): for
// every draw v, Float64() < p, that is float64(v>>11)/2^53 < p, holds
// exactly when v>>11 < Threshold(p). The result is 0 for p <= 0 or NaN
// (the test never passes) and 2^53 for p >= 1 (it always passes).
//
// Exactness: m = v>>11 is an integer below 2^53, so m/2^53 is exact and
// m/2^53 < p is m < p·2^53. For 0 < p < 1 the product p·2^53 is exact
// (scaling by a power of two, no overflow) and below 2^53, and an integer
// m is below a real x exactly when it is below ceil(x).
func Threshold(p float64) uint64 {
	switch {
	case !(p > 0):
		return 0
	case p >= 1:
		return 1 << 53
	}
	return uint64(math.Ceil(p * (1 << 53)))
}

// Below reports whether the next draw passes threshold t: for
// t = Threshold(p) it returns what Bool(p) returns, consuming the same
// single Uint64, with no float conversion.
func (s *Stream) Below(t uint64) bool {
	return s.Uint64()>>11 < t
}

// SkipGeometric advances s past n draws of Stream.Geometric(g) in O(1),
// without computing them. Each draw consumes one Uint64, or none when
// p >= 1, and SplitMix64's state is a counter that every Uint64 advances
// by the same odd constant.
func (s *Stream) SkipGeometric(g *Geometric, n uint64) {
	if !g.one {
		s.state += n * 0x9e3779b97f4a7c15
	}
}

// Uniform is a precomputed sampler for Uint64n(n): it draws exactly what
// Uint64n(n) draws, consuming the same Uint64 values, without computing
// the rejection bound on every call and with a mask instead of a division
// when n is a power of two. Build it with NewUniform and draw with
// Stream.Uniform.
type Uniform struct {
	n     uint64
	limit uint64 // -n % n: Uint64n rejects draws below it
	mask  uint64 // n-1 when n is a power of two above 1, else 0
}

// NewUniform returns the sampler for Uint64n(n). It panics if n == 0.
func NewUniform(n uint64) Uniform {
	if n == 0 {
		panic("rng: NewUniform with n == 0")
	}
	if n&(n-1) == 0 {
		// 2^64 is a multiple of n, so Uint64n rejects nothing (its limit
		// is 0) and v % n is v & (n-1). n == 1 keeps mask 0 and takes
		// v % 1.
		return Uniform{n: n, mask: n - 1}
	}
	return Uniform{n: n, limit: -n % n}
}

// N returns the sampler's bound n.
func (u *Uniform) N() uint64 { return u.n }

// Uniform returns the next value of u in [0, u.N()), equal to what
// Uint64n(u.N()) returns from the same state.
func (s *Stream) Uniform(u *Uniform) uint64 {
	v := s.Uint64()
	for v < u.limit {
		v = s.Uint64()
	}
	if u.mask != 0 {
		return v & u.mask
	}
	return v % u.n
}
