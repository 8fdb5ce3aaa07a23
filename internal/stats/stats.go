// Package stats provides the statistical machinery used by SMARTS-style
// sampled simulation: running mean/variance accumulators, Student-t
// confidence intervals, and percentile estimation.
//
// The paper (Sec. IV) measures performance "at a 95% confidence level and an
// average error below 2%"; ConfidenceInterval and RelativeError implement
// exactly that termination criterion.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Accumulator tracks a running mean and variance using Welford's algorithm,
// which is numerically stable for long simulations.
// The zero value is ready to use.
type Accumulator struct {
	n    int
	mean float64
	m2   float64
}

// Add incorporates one observation.
func (a *Accumulator) Add(x float64) {
	a.n++
	d := x - a.mean
	a.mean += d / float64(a.n)
	a.m2 += d * (x - a.mean)
}

// Mean returns the sample mean (0 for an empty accumulator).
func (a *Accumulator) Mean() float64 { return a.mean }

// Variance returns the unbiased sample variance (0 for n < 2).
func (a *Accumulator) Variance() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// StdDev returns the sample standard deviation.
func (a *Accumulator) StdDev() float64 { return math.Sqrt(a.Variance()) }

// StdErr returns the standard error of the mean (0 for n < 2).
func (a *Accumulator) StdErr() float64 {
	if a.n < 2 {
		return 0
	}
	return a.StdDev() / math.Sqrt(float64(a.n))
}

// ConfidenceInterval returns the half-width of the confidence interval on
// the mean at the given confidence level (e.g. 0.95), using the Student-t
// distribution with n-1 degrees of freedom. It returns +Inf for n < 2 so
// that adaptive sampling loops keep drawing samples.
func (a *Accumulator) ConfidenceInterval(level float64) float64 {
	if a.n < 2 {
		return math.Inf(1)
	}
	t := StudentTQuantile(float64(a.n-1), 0.5+level/2)
	return t * a.StdErr()
}

// RelativeError returns ConfidenceInterval(level) / |Mean| — the relative
// half-width used as the SMARTS stopping rule. It returns +Inf when the
// mean is zero or fewer than two samples were seen.
func (a *Accumulator) RelativeError(level float64) float64 {
	if a.mean == 0 {
		return math.Inf(1)
	}
	return a.ConfidenceInterval(level) / math.Abs(a.mean)
}

// String summarizes the accumulator for logs.
func (a *Accumulator) String() string {
	return fmt.Sprintf("n=%d mean=%.6g ±%.3g (95%%)", a.n, a.mean, a.ConfidenceInterval(0.95))
}

// StudentTQuantile returns the p-quantile of the Student-t distribution with
// df degrees of freedom (df > 0, 0 < p < 1). It inverts the incomplete beta
// CDF by bisection; accuracy is far better than the simulation noise it is
// compared against.
func StudentTQuantile(df, p float64) float64 {
	if p <= 0 || p >= 1 {
		panic("stats: StudentTQuantile p out of (0,1)")
	}
	if df <= 0 {
		panic("stats: StudentTQuantile df <= 0")
	}
	if p == 0.5 {
		return 0
	}
	if p < 0.5 {
		return -StudentTQuantile(df, 1-p)
	}
	lo, hi := 0.0, 1.0
	for studentTCDF(hi, df) < p {
		hi *= 2
		if hi > 1e8 {
			break
		}
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if studentTCDF(mid, df) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// studentTCDF returns P(T <= t) for Student-t with df degrees of freedom.
func studentTCDF(t, df float64) float64 {
	x := df / (df + t*t)
	ib := incompleteBeta(df/2, 0.5, x)
	if t >= 0 {
		return 1 - ib/2
	}
	return ib / 2
}

// incompleteBeta returns the regularized incomplete beta function I_x(a, b)
// via the standard continued-fraction expansion (Numerical-Recipes style).
func incompleteBeta(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	lbeta := lgamma(a+b) - lgamma(a) - lgamma(b) + a*math.Log(x) + b*math.Log(1-x)
	front := math.Exp(lbeta)
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

func betaCF(a, b, x float64) float64 {
	const (
		maxIter = 300
		eps     = 3e-14
		fpmin   = 1e-300
	)
	qab, qap, qam := a+b, a+1, a-1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		m2 := float64(2 * m)
		aa := float64(m) * (b - float64(m)) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + float64(m)) * (qab + float64(m)) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

// Percentile returns the p-quantile (0 <= p <= 1) of xs using linear
// interpolation between order statistics (the "R-7" definition used by most
// tools). It panics on an empty slice. xs is not modified.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		panic("stats: Percentile of empty slice")
	}
	if p < 0 || p > 1 {
		panic("stats: Percentile p out of [0,1]")
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0]
	}
	h := p * float64(len(sorted)-1)
	i := int(math.Floor(h))
	if i >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := h - float64(i)
	return sorted[i]*(1-frac) + sorted[i+1]*frac
}
