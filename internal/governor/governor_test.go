package governor

import (
	"math"
	"testing"
	"time"

	"ntcsim/internal/platform"
	"ntcsim/internal/qos"
	"ntcsim/internal/rng"
)

// testConfig builds a governor config from an analytic performance curve
// (UIPS roughly linear in f, as the VM workloads measure).
func testConfig(t *testing.T) *Config {
	t.Helper()
	spec := platform.Default()
	curve, err := NewPerfCurve([]PerfPoint{
		{0.2e9, 4e9}, {0.5e9, 9e9}, {1.0e9, 16e9}, {1.5e9, 21e9}, {2.0e9, 25e9},
	})
	if err != nil {
		t.Fatal(err)
	}
	return &Config{
		Platform:       spec,
		Curve:          curve,
		Tail:           qos.NewTailModel(36, 50*time.Millisecond, 25e9),
		QoSLimit:       200 * time.Millisecond,
		Uncore:         UncoreBreakdown{LLCW: 10, XbarW: 5, IOW: 8},
		MemBackgroundW: 15,
		MemDynPerReq:   1e-3,
		Margin:         0.85,
	}
}

func testTrace() LoadTrace {
	return DiurnalTrace(96, 2200, 0.2, 0.05, 1.4, rng.New(42))
}

func TestPerfCurveInterpolation(t *testing.T) {
	c, err := NewPerfCurve([]PerfPoint{{1e9, 10e9}, {2e9, 16e9}})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.UIPSAt(1.5e9); math.Abs(got-13e9) > 1e-3 {
		t.Fatalf("midpoint = %v, want 13e9", got)
	}
	if got := c.UIPSAt(0.5e9); got != 10e9 {
		t.Fatalf("below range should clamp, got %v", got)
	}
	if got := c.UIPSAt(3e9); got != 16e9 {
		t.Fatalf("above range should clamp, got %v", got)
	}
}

func TestPerfCurveValidation(t *testing.T) {
	if _, err := NewPerfCurve([]PerfPoint{{1e9, 1e9}}); err == nil {
		t.Fatal("single point should be rejected")
	}
	if _, err := NewPerfCurve([]PerfPoint{{1e9, 1e9}, {2e9, 0}}); err == nil {
		t.Fatal("zero UIPS should be rejected")
	}
}

func TestDiurnalTraceShape(t *testing.T) {
	tr := testTrace()
	if len(tr.Lambda) != 96 {
		t.Fatalf("steps = %d", len(tr.Lambda))
	}
	if tr.Step != 15*time.Minute {
		t.Fatalf("step = %v", tr.Step)
	}
	var min, max float64 = math.Inf(1), 0
	for _, l := range tr.Lambda {
		if l < 0 {
			t.Fatal("negative load")
		}
		min = math.Min(min, l)
		max = math.Max(max, l)
	}
	if max < 2*min {
		t.Fatalf("diurnal swing too small: %v..%v", min, max)
	}
	// Determinism.
	tr2 := DiurnalTrace(96, 2200, 0.2, 0.05, 1.4, rng.New(42))
	for i := range tr.Lambda {
		if tr.Lambda[i] != tr2.Lambda[i] {
			t.Fatal("trace not deterministic")
		}
	}
}

// TestAdaptiveMeetsQoS: the adaptive plan — MinFeasibleFreq of each
// step's load, which serve.Tracking decides every epoch — predicts a p99
// within the QoS limit for every step of the diurnal day that fmax itself
// can cover.
func TestAdaptiveMeetsQoS(t *testing.T) {
	cfg := testConfig(t)
	capMax := cfg.Tail.MaxLoad(cfg.QoSLimit, cfg.Curve.UIPSAt(cfg.Curve.MaxFreq()))
	planned := 0
	for i, lambda := range testTrace().Lambda {
		if lambda > capMax {
			continue
		}
		planned++
		f := cfg.MinFeasibleFreq(lambda)
		t99, err := cfg.Tail.Tail99(lambda, cfg.Curve.UIPSAt(f))
		if err != nil || t99 > cfg.QoSLimit {
			t.Fatalf("step %d: %.0f req/s planned at %.0f MHz predicts p99 %v (err %v), limit %v",
				i, lambda, f/1e6, t99, err, cfg.QoSLimit)
		}
	}
	if planned == 0 {
		t.Fatal("no step within fmax capacity: test exercises nothing")
	}
}

// TestAdaptiveTracksLoad: the planned frequency never falls as the load
// rises, drops below fmax at light load, and falls back to fmax once no
// curve point covers the load.
func TestAdaptiveTracksLoad(t *testing.T) {
	cfg := testConfig(t)
	low, high := cfg.MinFeasibleFreq(200), cfg.MinFeasibleFreq(3000)
	if low >= high {
		t.Fatalf("plan should scale with load: %.0f vs %.0f MHz", low/1e6, high/1e6)
	}
	prev := 0.0
	for lambda := 0.0; lambda <= 10000; lambda += 250 {
		f := cfg.MinFeasibleFreq(lambda)
		if f < prev {
			t.Fatalf("plan fell from %.0f to %.0f MHz as load rose to %.0f req/s", prev/1e6, f/1e6, lambda)
		}
		prev = f
	}
	if got := cfg.MinFeasibleFreq(1e9); got != cfg.Curve.MaxFreq() {
		t.Fatalf("infeasible load planned at %.0f MHz, want fmax", got/1e6)
	}
}
