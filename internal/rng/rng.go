// Package rng provides deterministic pseudo-random number generation for
// the simulator.
//
// Simulation results must be exactly reproducible across runs, Go versions,
// and platforms, so the simulator does not use math/rand (whose algorithms
// may change between releases). The generator here is SplitMix64, a small,
// fast, well-tested 64-bit generator with a 2^64 period, which is more than
// sufficient for the sample sizes used by SMARTS-style sampled simulation.
//
// Each simulated component (core trace, branch outcomes, memory addresses,
// VM statistics, ...) derives its own independent stream with Derive, so
// adding draws to one component never perturbs another.
//
// The two samplers on the workload generator's per-instruction path,
// Geometric and Zipf, draw through precomputed guide tables that return
// exactly what their reference inverse-CDF formulas return, consuming the
// same single Uint64 per draw. The tables depend only on the sampler's
// parameters, so they are built lazily on first use, cached for the life
// of the process and shared read-only by every sampler with the same
// parameters (see tables.go).
//
// The same path tests probabilities and draws bounded integers through
// precomputed forms that are exact equivalents of the reference calls
// (see uniform.go): Threshold and Below compare a draw's 53 bits with an
// integer where Bool converts to float, Uniform stores Uint64n's rejection
// bound and masks for powers of two, and SkipGeometric advances a stream
// past geometric draws without computing them.
package rng

import "math"

// Stream is a deterministic SplitMix64 random stream.
// The zero value is a valid stream seeded with 0.
type Stream struct {
	state uint64
}

// New returns a stream seeded with seed.
func New(seed uint64) *Stream {
	return &Stream{state: seed}
}

// Derive returns a new independent stream derived from s's seed and a label.
// The label is hashed (FNV-1a) so that distinct component names yield
// decorrelated streams. Derive does not consume state from s.
func (s *Stream) Derive(label string) *Stream {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= prime64
	}
	// Mix the parent seed in and run one scramble round so that even
	// similar labels produce unrelated streams.
	d := &Stream{state: s.state ^ h}
	d.Uint64()
	return d
}

// Split returns substream i of s. The substream's seed is a pure function
// of s's seed and the index — independent of how many substreams are taken,
// in what order, or from which goroutine — which is what lets a parallel
// scenario grid hand substream i to the worker evaluating scenario i and
// still produce bit-identical results at any worker count. The index is passed through a
// SplitMix64-style finalizer before mixing so that adjacent indices yield
// decorrelated streams. Split does not consume state from s.
func (s *Stream) Split(i uint64) *Stream {
	z := i + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	d := &Stream{state: s.state ^ z}
	d.Uint64()
	return d
}

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Stream) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64n returns a uniform value in [0, n). It panics if n == 0.
func (s *Stream) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with n == 0")
	}
	// Rejection sampling to avoid modulo bias.
	limit := -n % n // == (2^64 - n) % n, the count of biased high values
	for {
		v := s.Uint64()
		if v >= limit {
			return v % n
		}
	}
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with n <= 0")
	}
	return int(s.Uint64n(uint64(n)))
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (s *Stream) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (s *Stream) Bool(p float64) bool {
	return s.Float64() < p
}

// NormFloat64 returns a standard normal deviate (Box-Muller; one value per
// call, the pair's second value is discarded for simplicity).
func (s *Stream) NormFloat64() float64 {
	for {
		u := s.Float64()
		if u > 0 {
			v := s.Float64()
			return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*v)
		}
	}
}

// Exponential returns an exponential deviate with the given mean.
func (s *Stream) Exponential(mean float64) float64 {
	for {
		u := s.Float64()
		if u > 0 {
			return -mean * math.Log(u)
		}
	}
}

// Beta returns a Beta(a, b) deviate using Johnk's algorithm for small
// parameters and gamma ratios otherwise. Used for per-branch taken bias.
func (s *Stream) Beta(a, b float64) float64 {
	x := s.gamma(a)
	y := s.gamma(b)
	if x+y == 0 {
		return 0.5
	}
	return x / (x + y)
}

// gamma returns a Gamma(shape, 1) deviate (Marsaglia-Tsang for shape >= 1,
// boosted for shape < 1).
func (s *Stream) gamma(shape float64) float64 {
	if shape < 1 {
		// Gamma(a) = Gamma(a+1) * U^(1/a)
		u := s.Float64()
		for u == 0 {
			u = s.Float64()
		}
		return s.gamma(shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := s.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := s.Float64()
		if u == 0 {
			continue
		}
		if math.Log(u) < 0.5*x*x+d-d*v+d*math.Log(v) {
			return d * v
		}
	}
}
