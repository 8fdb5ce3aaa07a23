package main

import "sort"

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first quartile, median and third quartile of xs
// by the same rule as Python's statistics.quantiles(xs, n=4) (the
// default "exclusive" method), so spreads computed here and by other
// tooling agree. A single value is its own quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// tailRank is how many samples must lie above a reported tail value.
const tailRank = 10

// tail returns the highest percentile of xs that has at least tailRank
// samples above it: the largest tail a sample of this size supports.
// Below 2*tailRank+1 samples no percentile above the median qualifies,
// and the median is returned.
func tail(xs []float64) float64 {
	s := sorted(xs)
	if n := len(s); n > 2*tailRank {
		return s[n-tailRank-1]
	}
	return median(xs)
}

// iqr returns the distance between the first and third quartiles of xs.
func iqr(xs []float64) float64 {
	q1, _, q3 := quartiles(xs)
	return q3 - q1
}
