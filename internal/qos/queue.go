package qos

import (
	"fmt"
	"math"
	"time"
)

// TailModel extends the paper's near-zero-contention latency scaling to
// loaded servers with an M/M/k queueing approximation. The paper measures
// the minimum 99th-percentile latency (no queueing) and scales it with
// throughput; under real load, queueing delay inflates the tail. The model
// composes the two:
//
//	T99(f, lambda) = scaledBase99(f) + Wq99(f, lambda)
//
// where Wq99 comes from the Erlang-C waiting-time distribution
// P(Wq > t) = C(k, a) * exp(-k*mu*(1-rho)*t). This is the machinery the
// DVFS governor uses to keep QoS under time-varying load — the
// "computation spikes" the paper's FBB boost knob targets.
type TailModel struct {
	// Cores is the number of service slots (request-level parallelism).
	Cores int
	// Base99 is the measured minimum 99th-percentile latency at BaseUIPS
	// (the paper's 2GHz near-zero-contention measurement).
	Base99 time.Duration
	// BaseUIPS is the throughput at which Base99 was measured.
	BaseUIPS float64
	// ServiceFraction converts tail latency to mean service time:
	// S = Base99 * ServiceFraction (for an exponential service
	// distribution the 99th is ~4.6x the mean, so ~0.22).
	ServiceFraction float64
}

// NewTailModel builds a tail model from a workload baseline.
func NewTailModel(cores int, base99 time.Duration, baseUIPS float64) TailModel {
	return TailModel{
		Cores:           cores,
		Base99:          base99,
		BaseUIPS:        baseUIPS,
		ServiceFraction: 1 / math.Log(100), // exponential service: p99 = ln(100)*mean
	}
}

// scaled99 returns the zero-contention tail at throughput uips.
func (m TailModel) scaled99(uips float64) time.Duration {
	return ScaledLatency(m.Base99, m.BaseUIPS, uips)
}

// MeanService returns the mean request service time at throughput uips.
func (m TailModel) MeanService(uips float64) time.Duration {
	return time.Duration(float64(m.scaled99(uips)) * m.ServiceFraction)
}

// Capacity returns the maximum sustainable arrival rate (requests/s) at
// throughput uips (rho = 1 boundary).
func (m TailModel) Capacity(uips float64) float64 {
	s := m.MeanService(uips).Seconds()
	if s <= 0 {
		return 0
	}
	return float64(m.Cores) / s
}

// erlangC returns the probability an arrival must queue in an M/M/k system
// with offered load a = lambda/mu and k servers (computed with the stable
// iterative form).
func erlangC(k int, a float64) float64 {
	if a <= 0 {
		return 0
	}
	rho := a / float64(k)
	if rho >= 1 {
		return 1
	}
	// Iteratively build the Erlang-B blocking probability, then convert.
	b := 1.0
	for i := 1; i <= k; i++ {
		b = a * b / (float64(i) + a*b)
	}
	return b / (1 - rho*(1-b))
}

// Tail99 returns the 99th-percentile request latency at throughput uips
// under Poisson arrivals of rate lambda. It returns an error when the
// system is saturated (rho >= 1).
func (m TailModel) Tail99(lambda, uips float64) (time.Duration, error) {
	return m.TailQuantile(lambda, uips, 0.99)
}

// TailQuantile returns the q-quantile (q in (0,1), e.g. 0.99) of the
// request sojourn time T = Wq + S in the M/M/k system at throughput uips
// under Poisson arrivals of rate lambda.
//
// The wait Wq is zero with probability 1-C (Erlang-C) and otherwise
// exponential with rate delta = k*mu*(1-rho); the service S is exponential
// with rate mu, independent of Wq. The exact survival function is
//
//	P(T > t) = (1-C)*e^(-mu*t) + C * (delta*e^(-mu*t) - mu*e^(-delta*t)) / (delta-mu)
//
// (with the usual (1+mu*t)*e^(-mu*t) convolution when delta == mu), and the
// quantile is resolved by bisection on integer nanoseconds: the smallest t
// with P(T > t) <= 1-q. An earlier revision approximated the quantile as
// q99(S) + q99(Wq); that additive composition systematically over-predicts
// (quantiles do not add), by up to ~35% at small k and high rho — see
// DESIGN.md §11 and the discrete-event cross-validation in internal/serve.
func (m TailModel) TailQuantile(lambda, uips, q float64) (time.Duration, error) {
	if q <= 0 || q >= 1 {
		return 0, fmt.Errorf("qos: quantile %v outside (0,1)", q)
	}
	s := m.MeanService(uips).Seconds()
	if s <= 0 {
		return 0, fmt.Errorf("qos: degenerate service time")
	}
	mu := 1 / s
	k := float64(m.Cores)
	rho := lambda / (k * mu)
	if rho >= 1 {
		return 0, fmt.Errorf("qos: saturated (rho = %.2f)", rho)
	}
	c := erlangC(m.Cores, lambda/mu)
	p := 1 - q
	if c == 0 {
		// No queueing: T = S exactly, so the quantile has a closed form.
		// q = 0.99 returns the scaled baseline measurement bit-exactly
		// (ServiceFraction is defined as 1/ln(100)).
		if q == 0.99 {
			return m.scaled99(uips), nil
		}
		return time.Duration(float64(m.scaled99(uips)) * math.Log1p(-q) / math.Log(0.01)), nil
	}
	delta := k * mu * (1 - rho)
	survive := func(tns int64) float64 {
		t := float64(tns) * 1e-9
		emu := math.Exp(-mu * t)
		var conv float64
		if math.Abs(delta-mu) <= 1e-9*mu {
			conv = (1 + mu*t) * emu
		} else {
			conv = (delta*emu - mu*math.Exp(-delta*t)) / (delta - mu)
		}
		return (1-c)*emu + c*conv
	}
	// Bracket: grow from the pure-service quantile until the survival
	// probability drops below p, then bisect to the nanosecond. Bisecting
	// on integers keeps the result exactly monotone in lambda (the
	// survival function is pointwise monotone in lambda).
	hi := int64(math.Ceil(s * math.Log(1/p) * 1e9))
	if hi < 1 {
		hi = 1
	}
	for i := 0; survive(hi) > p && i < 64; i++ {
		hi *= 2
	}
	var lo int64
	for lo+1 < hi {
		mid := lo + (hi-lo)/2
		if survive(mid) > p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return time.Duration(hi), nil
}

// MaxLoad returns the highest arrival rate at which the 99th-percentile
// latency stays within limit, at throughput uips (bisection; 0 when even
// an unloaded system violates the limit).
func (m TailModel) MaxLoad(limit time.Duration, uips float64) float64 {
	if t99, err := m.Tail99(0, uips); err != nil || t99 > limit {
		return 0
	}
	lo, hi := 0.0, m.Capacity(uips)*0.999999
	for i := 0; i < 80; i++ {
		mid := (lo + hi) / 2
		t99, err := m.Tail99(mid, uips)
		if err == nil && t99 <= limit {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}
