package power

import (
	"math"
	"testing"
	"testing/quick"

	"ntcsim/internal/tech"
)

func TestDynamicPowerScaling(t *testing.T) {
	m := NewA57(tech.FDSOI28())
	base := m.DynamicPower(1.0, 1e9, 1.0)
	// Quadratic in voltage.
	if got := m.DynamicPower(2.0, 1e9, 1.0); math.Abs(got-4*base) > 1e-12*base {
		t.Fatalf("doubling Vdd: %v, want 4x %v", got, base)
	}
	// Linear in frequency.
	if got := m.DynamicPower(1.0, 2e9, 1.0); math.Abs(got-2*base) > 1e-12*base {
		t.Fatalf("doubling f: %v, want 2x %v", got, base)
	}
	// Linear in activity.
	if got := m.DynamicPower(1.0, 1e9, 0.5); math.Abs(got-base/2) > 1e-12*base {
		t.Fatalf("half activity: %v, want %v", got, base/2)
	}
}

func TestA57Calibration(t *testing.T) {
	// ~1.2W dynamic at the Exynos-class nominal point (1.9GHz, 1.1V).
	m := NewA57(tech.FDSOI28())
	got := m.DynamicPower(1.1, 1.9e9, 1.0)
	if math.Abs(got-1.2) > 0.01 {
		t.Fatalf("A57 nominal dynamic power = %.3fW, want ~1.2W", got)
	}
}

func TestBulkLeaksMoreThanFDSOI(t *testing.T) {
	bulk := NewA57(tech.Bulk28())
	fdsoi := NewA57(tech.FDSOI28())
	if bulk.LeakRefW <= fdsoi.LeakRefW {
		t.Fatal("bulk reference leakage should exceed FD-SOI")
	}
}

func TestFDSOIBeatsBulkAtIsoFrequency(t *testing.T) {
	// Fig. 1 filled lines: "FD-SOI by itself leads to a significant
	// reduction in the power consumption at the same frequency w.r.t bulk".
	bulk := NewA57(tech.Bulk28())
	fdsoi := NewA57(tech.FDSOI28())
	prevGain := 0.0
	// Sweep downward so we can also check the gain grows as voltage drops.
	// (Above ~2GHz bulk runs against its Vmax wall, which perturbs the
	// trend; the paper's claim concerns the low-voltage region.)
	for _, ghz := range []float64{2.0, 1.5, 1.0, 0.5, 0.2} {
		hz := ghz * 1e9
		_, pb, err := bulk.PointAt(hz, 0, 1.0)
		if err != nil {
			t.Fatalf("bulk at %.1fGHz: %v", ghz, err)
		}
		_, pf, err := fdsoi.PointAt(hz, 0, 1.0)
		if err != nil {
			t.Fatalf("fdsoi at %.1fGHz: %v", ghz, err)
		}
		if pf >= pb {
			t.Fatalf("at %.1fGHz FD-SOI (%.3fW) should beat bulk (%.3fW)", ghz, pf, pb)
		}
		gain := pb / pf
		if gain < prevGain {
			t.Fatalf("power gain should grow as frequency/voltage drops: %.2fx after %.2fx at %.1fGHz",
				gain, prevGain, ghz)
		}
		prevGain = gain
	}
}

func TestOptimalBiasNeverWorseThanZeroBias(t *testing.T) {
	m := NewA57(tech.FDSOI28())
	for _, ghz := range []float64{0.1, 0.3, 0.5, 1.0, 2.0, 3.0} {
		hz := ghz * 1e9
		_, p0, err := m.PointAt(hz, 0, 1.0)
		if err != nil {
			t.Fatalf("zero bias at %.1fGHz: %v", ghz, err)
		}
		op, pOpt, err := m.OptimalBias(hz, 1.0)
		if err != nil {
			t.Fatalf("OptimalBias at %.1fGHz: %v", ghz, err)
		}
		if pOpt > p0*(1+1e-9) {
			t.Fatalf("at %.1fGHz optimal bias %.3fW worse than zero bias %.3fW", ghz, pOpt, p0)
		}
		if op.Vbb < 0 {
			t.Fatalf("active optimal bias must not be reverse: %v", op.Vbb)
		}
	}
}

func TestOptimalBiasLowersVoltage(t *testing.T) {
	// FBB lets the same frequency run at lower supply (paper Sec. II-A).
	m := NewA57(tech.FDSOI28())
	op0, _, err := m.PointAt(2e9, 0, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	opB, _, err := m.OptimalBias(2e9, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if opB.Vbb > 0 && opB.Vdd >= op0.Vdd {
		t.Fatalf("positive bias %vV should lower Vdd: %v vs %v", opB.Vbb, opB.Vdd, op0.Vdd)
	}
}

func TestOptimalBiasReachesBeyondZeroBiasMax(t *testing.T) {
	// Frequencies unreachable at zero bias are reachable with FBB.
	m := NewA57(tech.FDSOI28())
	maxZero := m.Tech.MaxFrequency(m.Tech.VddMax, 0)
	hz := maxZero * 1.1
	if _, _, err := m.PointAt(hz, 0, 1.0); err == nil {
		t.Fatal("expected zero-bias failure above capability")
	}
	op, w, err := m.OptimalBias(hz, 1.0)
	if err != nil {
		t.Fatalf("OptimalBias should reach %.2fGHz with FBB: %v", hz/1e9, err)
	}
	if op.Vbb <= 0 || w <= 0 {
		t.Fatalf("expected positive bias and power, got vbb=%v w=%v", op.Vbb, w)
	}
}

func TestOptimalBiasUnreachable(t *testing.T) {
	m := NewA57(tech.FDSOI28())
	if _, _, err := m.OptimalBias(50e9, 1.0); err == nil {
		t.Fatal("50GHz should be unreachable even with max FBB")
	}
}

func TestSleepPowerFarBelowActive(t *testing.T) {
	m := NewA57(tech.FDSOI28())
	op, _ := m.Tech.OperatingPointFor(1e9, 0)
	active := m.Power(op, 1.0)
	sleep := m.SleepPower(op.Vdd)
	if sleep >= active/10 {
		t.Fatalf("sleep power %.4fW should be far below active %.3fW", sleep, active)
	}
	if leak := m.LeakagePower(op.Vdd, 0); sleep >= leak {
		t.Fatalf("sleep %.4fW should be below active leakage %.4fW", sleep, leak)
	}
}

func TestEnergyPerCycleMinimumIsNearThreshold(t *testing.T) {
	// The defining NTC property: energy per cycle is minimized at low
	// voltage, not at nominal (paper Sec. I: "quadratic dependency of the
	// dynamic power with the supply voltage").
	m := NewA57(tech.FDSOI28())
	epcAt := func(ghz float64) float64 {
		op, err := m.Tech.OperatingPointFor(ghz*1e9, 0)
		if err != nil {
			t.Fatalf("%.1fGHz: %v", ghz, err)
		}
		return m.Power(op, 1.0) / op.FreqHz
	}
	low := epcAt(0.3)
	nominal := epcAt(2.5)
	if low >= nominal {
		t.Fatalf("energy/cycle at 0.3GHz (%.3g) should be below 2.5GHz (%.3g)", low, nominal)
	}
	if nominal/low < 2 {
		t.Fatalf("NTC energy gain = %.2fx, want >= 2x", nominal/low)
	}
}

func TestChipLevelPowerBudget(t *testing.T) {
	// The paper's platform: 36 cores within a 100W chip budget. At the
	// QoS-feasible region (<=2GHz) the cores must fit comfortably.
	m := NewA57(tech.FDSOI28())
	op, w, err := m.PointAt(2e9, 0, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	chip := 36 * w
	if chip > 100 {
		t.Fatalf("36 cores at 2GHz = %.1fW (Vdd %.2f), exceeds 100W budget", chip, op.Vdd)
	}
}

func TestQuickPowerPositiveAndIncreasing(t *testing.T) {
	m := NewA57(tech.FDSOI28())
	err := quick.Check(func(a, b uint16) bool {
		f1 := 50e6 + float64(a)/65535*2.95e9
		f2 := 50e6 + float64(b)/65535*2.95e9
		if f1 > f2 {
			f1, f2 = f2, f1
		}
		_, p1, err1 := m.PointAt(f1, 0, 1.0)
		_, p2, err2 := m.PointAt(f2, 0, 1.0)
		if err1 != nil || err2 != nil {
			return false
		}
		return p1 > 0 && p2 >= p1*(1-1e-9)
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestQuickLeakageAlwaysPositive(t *testing.T) {
	m := NewA57(tech.FDSOI28())
	err := quick.Check(func(v8, b8 uint8) bool {
		vdd := 0.5 + float64(v8)/255*0.9
		vbb := -1 + float64(b8)/255*4
		return m.LeakagePower(vdd, vbb) > 0
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}
