package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestAccumulatorBasics(t *testing.T) {
	var a Accumulator
	for _, x := range []float64{1, 2, 3, 4, 5} {
		a.Add(x)
	}
	if a.n != 5 {
		t.Fatalf("N = %d, want 5", a.n)
	}
	if math.Abs(a.Mean()-3) > 1e-12 {
		t.Fatalf("Mean = %v, want 3", a.Mean())
	}
	if math.Abs(a.Variance()-2.5) > 1e-12 {
		t.Fatalf("Variance = %v, want 2.5", a.Variance())
	}
	if math.Abs(a.StdDev()-math.Sqrt(2.5)) > 1e-12 {
		t.Fatalf("StdDev = %v", a.StdDev())
	}
}

func TestAccumulatorEmpty(t *testing.T) {
	var a Accumulator
	if a.Mean() != 0 || a.Variance() != 0 || a.StdErr() != 0 {
		t.Fatal("empty accumulator should report zeros")
	}
	if !math.IsInf(a.ConfidenceInterval(0.95), 1) {
		t.Fatal("CI of empty accumulator should be +Inf")
	}
	if !math.IsInf(a.RelativeError(0.95), 1) {
		t.Fatal("RelativeError of empty accumulator should be +Inf")
	}
}

func TestAccumulatorSingleValue(t *testing.T) {
	var a Accumulator
	a.Add(7)
	if a.Variance() != 0 {
		t.Fatal("variance of one sample should be 0")
	}
	if !math.IsInf(a.ConfidenceInterval(0.95), 1) {
		t.Fatal("CI with one sample should be +Inf (cannot estimate)")
	}
}

func TestConfidenceIntervalShrinks(t *testing.T) {
	// With constant spread, CI half-width must shrink as ~1/sqrt(n).
	var small, large Accumulator
	for i := 0; i < 10; i++ {
		small.Add(float64(i % 2))
	}
	for i := 0; i < 1000; i++ {
		large.Add(float64(i % 2))
	}
	if large.ConfidenceInterval(0.95) >= small.ConfidenceInterval(0.95) {
		t.Fatal("CI should shrink with more samples")
	}
}

func TestStudentTQuantileKnownValues(t *testing.T) {
	// Reference values from standard t tables.
	cases := []struct {
		df   float64
		p    float64
		want float64
	}{
		{1, 0.975, 12.706},
		{5, 0.975, 2.571},
		{10, 0.975, 2.228},
		{30, 0.975, 2.042},
		{100, 0.975, 1.984},
		{10, 0.95, 1.812},
		{20, 0.99, 2.528},
	}
	for _, c := range cases {
		got := StudentTQuantile(c.df, c.p)
		if math.Abs(got-c.want) > 0.01*c.want {
			t.Errorf("t(df=%v, p=%v) = %v, want %v", c.df, c.p, got, c.want)
		}
	}
}

func TestStudentTQuantileSymmetry(t *testing.T) {
	for _, df := range []float64{2, 7, 33} {
		hi := StudentTQuantile(df, 0.9)
		lo := StudentTQuantile(df, 0.1)
		if math.Abs(hi+lo) > 1e-9 {
			t.Errorf("t quantiles not symmetric for df=%v: %v vs %v", df, hi, lo)
		}
	}
	if StudentTQuantile(5, 0.5) != 0 {
		t.Error("median of t distribution should be 0")
	}
}

func TestStudentTQuantileLargeDfApproachesNormal(t *testing.T) {
	got := StudentTQuantile(1e6, 0.975)
	if math.Abs(got-1.96) > 0.01 {
		t.Fatalf("t(1e6, .975) = %v, want ~1.96", got)
	}
}

func TestStudentTQuantilePanics(t *testing.T) {
	for _, f := range []func(){
		func() { StudentTQuantile(5, 0) },
		func() { StudentTQuantile(5, 1) },
		func() { StudentTQuantile(0, 0.5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := Percentile(xs, 0); got != 1 {
		t.Fatalf("p0 = %v", got)
	}
	if got := Percentile(xs, 1); got != 10 {
		t.Fatalf("p100 = %v", got)
	}
	if got := Percentile(xs, 0.5); math.Abs(got-5.5) > 1e-12 {
		t.Fatalf("p50 = %v, want 5.5", got)
	}
	if got := Percentile(xs, 0.99); math.Abs(got-9.91) > 1e-9 {
		t.Fatalf("p99 = %v, want 9.91", got)
	}
}

func TestPercentileDoesNotModifyInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Percentile modified its input")
	}
}

func TestPercentileSingle(t *testing.T) {
	if got := Percentile([]float64{42}, 0.99); got != 42 {
		t.Fatalf("got %v", got)
	}
}

func TestQuickAccumulatorMeanMatchesDirect(t *testing.T) {
	err := quick.Check(func(xs []float64) bool {
		// Filter non-finite fuzz inputs.
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e12 {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		var a Accumulator
		sum := 0.0
		for _, x := range clean {
			a.Add(x)
			sum += x
		}
		direct := sum / float64(len(clean))
		scale := math.Max(1, math.Abs(direct))
		return math.Abs(a.Mean()-direct) < 1e-6*scale
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Fatal(err)
	}
}

func TestQuickVarianceNonNegative(t *testing.T) {
	err := quick.Check(func(xs []float64) bool {
		var a Accumulator
		for _, x := range xs {
			// Skip values whose squared deviations would overflow float64;
			// simulation observables are nowhere near this range.
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e150 {
				continue
			}
			a.Add(x)
		}
		return a.Variance() >= 0 || a.n < 2
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Fatal(err)
	}
}

func TestQuickPercentileWithinBounds(t *testing.T) {
	err := quick.Check(func(xs []float64, p8 uint8) bool {
		clean := make([]float64, 0, len(xs))
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		p := float64(p8) / 255
		v := Percentile(clean, p)
		lo, hi := clean[0], clean[0]
		for _, x := range clean {
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
		}
		return v >= lo && v <= hi
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Fatal(err)
	}
}
