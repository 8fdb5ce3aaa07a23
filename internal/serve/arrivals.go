package serve

import (
	"math"
	"time"

	"ntcsim/internal/governor"
	"ntcsim/internal/rng"
)

// maxArrivalRate caps the sanitized per-step rate. Thinning draws
// candidate arrivals at the trace's MAXIMUM rate for the whole horizon,
// so generation cost is lamMax * horizon regardless of how many are
// accepted; the cap bounds that cost for hostile (fuzzed) traces. 1e6
// requests/s is two-plus orders of magnitude past the saturation point
// of any fleet this simulator models — beyond it every scenario is
// identically "hopelessly overloaded", so clamping loses nothing.
const maxArrivalRate = 1e6

// ArrivalGen draws a nonhomogeneous Poisson request process over a
// governor.LoadTrace by thinning: candidate arrivals are generated from a
// homogeneous process at the trace's maximum rate and accepted with
// probability lambda(t)/lambdaMax, which is exact for piecewise-constant
// rates. All randomness comes from the provided rng.Stream, times advance
// by at least one nanosecond per arrival (the event loop needs strictly
// increasing timestamps), and trace levels are sanitized — NaN or
// negative rates serve as zero, infinities are capped — so arbitrary
// fuzzed traces can never yield a panic, a NaN, or a non-increasing time.
type ArrivalGen struct {
	step    time.Duration
	lambda  []float64 // sanitized trace rates
	horizon time.Duration
	lamMax  float64 // thinning bound
	r       *rng.Stream
	t       time.Duration
	done    bool
}

// NewArrivalGen builds a generator over trace drawing from r. A trace
// with no steps, a non-positive step duration, or an all-zero rate
// profile yields a generator that is immediately exhausted.
func NewArrivalGen(trace governor.LoadTrace, r *rng.Stream) *ArrivalGen {
	g := &ArrivalGen{step: trace.Step, r: r}
	if trace.Step <= 0 || len(trace.Lambda) == 0 {
		g.done = true
		return g
	}
	g.lambda = make([]float64, len(trace.Lambda))
	for i, lam := range trace.Lambda {
		if math.IsNaN(lam) || lam < 0 {
			lam = 0
		}
		if lam > maxArrivalRate {
			lam = maxArrivalRate
		}
		g.lambda[i] = lam
		if lam > g.lamMax {
			g.lamMax = lam
		}
	}
	g.horizon = trace.Step * time.Duration(len(trace.Lambda))
	if g.lamMax <= 0 {
		g.done = true
	}
	return g
}

// rateAt returns the sanitized trace rate at virtual time t.
func (g *ArrivalGen) rateAt(t time.Duration) float64 {
	i := int(t / g.step)
	if i < 0 || i >= len(g.lambda) {
		return 0
	}
	return g.lambda[i]
}

// Next returns the next arrival time, strictly after the previous one and
// strictly inside the trace horizon, or false when the process is
// exhausted.
func (g *ArrivalGen) Next() (time.Duration, bool) {
	if g.done {
		return 0, false
	}
	for {
		dtNs := g.r.Exponential(1/g.lamMax) * 1e9
		if dtNs >= float64(g.horizon-g.t) {
			g.done = true
			return 0, false
		}
		dt := time.Duration(dtNs)
		if dt < 1 {
			dt = 1
		}
		if g.t >= g.horizon-dt {
			g.done = true
			return 0, false
		}
		g.t += dt
		if g.r.Float64()*g.lamMax < g.rateAt(g.t) {
			return g.t, true
		}
	}
}
