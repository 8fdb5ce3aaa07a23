package main

import "testing"

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{4}, 4},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{5}, [3]float64{5, 5, 5}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
		{[]float64{4, 2, 3, 1}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, [3]float64{3, 6, 9}},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if got := [3]float64{q1, q2, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	if got := iqr([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); got != 5.5 {
		t.Errorf("iqr = %v, want 5.5", got)
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: tail must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{20, 10.5}, // no percentile above the median has ten beyond it
		{21, 11},   // the 11th of 21 has exactly ten above it
		{44, 34},   // the 77th percentile
		{60, 50},   // the 83rd percentile
	} {
		if got := tail(seq(tc.n)); got != tc.want {
			t.Errorf("tail of 1..%d = %v, want %v", tc.n, got, tc.want)
		}
	}
}
