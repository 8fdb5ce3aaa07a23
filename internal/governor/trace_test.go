package governor

import (
	"math"
	"testing"
	"time"

	"ntcsim/internal/rng"
)

func TestStepUp(t *testing.T) {
	curve, err := NewPerfCurve([]PerfPoint{
		{FreqHz: 0.5e9, UIPS: 9e9}, {FreqHz: 1.0e9, UIPS: 16e9}, {FreqHz: 2.0e9, UIPS: 25e9},
	})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ in, want float64 }{
		{0, 0.5e9},     // below range: first point
		{0.5e9, 1.0e9}, // exact point: next one
		{0.7e9, 1.0e9}, // between points: next above
		{1.0e9, 2.0e9}, // penultimate: top
		{2.0e9, 2.0e9}, // top: stays at top
		{3.0e9, 2.0e9}, // beyond range: top
	}
	for _, tc := range cases {
		if got := curve.StepUp(tc.in); got != tc.want {
			t.Errorf("StepUp(%.1f GHz) = %.1f GHz, want %.1f GHz", tc.in/1e9, got/1e9, tc.want/1e9)
		}
	}
}

func TestWithStepAndDuration(t *testing.T) {
	tr := LoadTrace{Step: time.Hour, Lambda: []float64{1, 2, 3}}
	if got := tr.Duration(); got != 3*time.Hour {
		t.Fatalf("Duration = %v, want 3h", got)
	}
	fast := tr.WithStep(2 * time.Second)
	if fast.Step != 2*time.Second || len(fast.Lambda) != 3 {
		t.Fatalf("WithStep mangled the trace: %+v", fast)
	}
	if got := fast.Duration(); got != 6*time.Second {
		t.Fatalf("compressed Duration = %v, want 6s", got)
	}
	if tr.Step != time.Hour {
		t.Fatal("WithStep mutated the receiver")
	}
}

func TestSpikeTraceShape(t *testing.T) {
	tr := SpikeTrace(10, time.Second, 100, 5, 4, 3)
	if len(tr.Lambda) != 10 || tr.Step != time.Second {
		t.Fatalf("bad shape: %+v", tr)
	}
	for i, lam := range tr.Lambda {
		want := 100.0
		if i >= 4 && i < 7 {
			want = 500
		}
		if lam != want {
			t.Errorf("step %d = %v, want %v", i, lam, want)
		}
	}
	if got := SpikeTrace(0, time.Second, 100, 5, 0, 1); len(got.Lambda) != 0 {
		t.Fatal("steps=0 should yield an empty trace")
	}
	if got := SpikeTrace(5, 0, 100, 5, 0, 1); len(got.Lambda) != 0 {
		t.Fatal("step<=0 should yield an empty trace")
	}
	// Sub-1 magnitudes mean "no spike", never a dip.
	flat := SpikeTrace(5, time.Second, 100, 0.2, 1, 2)
	for i, lam := range flat.Lambda {
		if lam != 100 {
			t.Fatalf("spikeMag<1 dipped step %d to %v", i, lam)
		}
	}
}

func TestDiurnalTraceSanitization(t *testing.T) {
	if tr := DiurnalTrace(0, 100, 0.2, 0.05, 1.4, rng.New(1)); len(tr.Lambda) != 0 {
		t.Fatal("steps=0 should yield an empty trace")
	}
	if tr := DiurnalTrace(-5, 100, 0.2, 0.05, 1.4, rng.New(1)); len(tr.Lambda) != 0 {
		t.Fatal("negative steps should yield an empty trace")
	}
	hostile := DiurnalTrace(48, math.Inf(1), math.NaN(), 2.5, math.Inf(1), rng.New(7))
	if len(hostile.Lambda) != 48 || hostile.Step <= 0 {
		t.Fatalf("hostile params broke the shape: %+v", hostile)
	}
	for i, lam := range hostile.Lambda {
		if math.IsNaN(lam) || math.IsInf(lam, 0) || lam < 0 {
			t.Fatalf("hostile params leaked level %v at step %d", lam, i)
		}
	}
	// Valid inputs must be unaffected by the sanitization layer: the rng
	// draw sequence is part of the output contract.
	a := DiurnalTrace(96, 2200, 0.2, 0.05, 1.4, rng.New(42))
	b := DiurnalTrace(96, 2200, 0.2, 0.05, 1.4, rng.New(42))
	for i := range a.Lambda {
		if a.Lambda[i] != b.Lambda[i] {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
}
