package stats

import "testing"

// mustPanicWith asserts f panics with exactly the given message — the
// "stats: ..." strings are part of the package contract now that the
// panicmsg analyzer locks the prefix convention in.
func mustPanicWith(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected panic %q, got none", want)
		}
		got, ok := r.(string)
		if !ok {
			t.Fatalf("expected string panic %q, got %T: %v", want, r, r)
		}
		if got != want {
			t.Fatalf("panic message = %q, want %q", got, want)
		}
	}()
	f()
}

func TestStudentTQuantileGuardPanics(t *testing.T) {
	for _, p := range []float64{0, 1, -0.1, 1.5} {
		p := p
		mustPanicWith(t, "stats: StudentTQuantile p out of (0,1)", func() {
			StudentTQuantile(5, p)
		})
	}
	for _, df := range []float64{0, -3} {
		df := df
		mustPanicWith(t, "stats: StudentTQuantile df <= 0", func() {
			StudentTQuantile(df, 0.9)
		})
	}
	// Guard boundaries: p strictly inside (0,1) with df > 0 must not panic.
	if q := StudentTQuantile(5, 0.975); q <= 0 {
		t.Errorf("StudentTQuantile(5, 0.975) = %v, want > 0", q)
	}
}

func TestPercentileGuardPanics(t *testing.T) {
	mustPanicWith(t, "stats: Percentile of empty slice", func() {
		Percentile(nil, 0.5)
	})
	mustPanicWith(t, "stats: Percentile of empty slice", func() {
		Percentile([]float64{}, 0.5)
	})
	for _, p := range []float64{-0.01, 1.01} {
		p := p
		mustPanicWith(t, "stats: Percentile p out of [0,1]", func() {
			Percentile([]float64{1, 2, 3}, p)
		})
	}
	// The closed-interval bounds themselves are legal.
	if got := Percentile([]float64{1, 2, 3}, 0); got != 1 {
		t.Errorf("Percentile(p=0) = %v, want 1", got)
	}
	if got := Percentile([]float64{1, 2, 3}, 1); got != 3 {
		t.Errorf("Percentile(p=1) = %v, want 3", got)
	}
}
