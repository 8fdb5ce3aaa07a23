package tech

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestFDSOIAnchorPoints(t *testing.T) {
	te := FDSOI28()
	// The fitted model must pass through its anchor points.
	if f := te.MaxFrequency(0.5, 0); math.Abs(f-100e6) > 1e6 {
		t.Fatalf("FD-SOI at 0.5V = %.1f MHz, want ~100", f/1e6)
	}
	if f := te.MaxFrequency(1.3, 0); math.Abs(f-3.0e9) > 30e6 {
		t.Fatalf("FD-SOI at 1.3V = %.2f GHz, want ~3.0", f/1e9)
	}
}

func TestBulkNonFunctionalAtHalfVolt(t *testing.T) {
	// Paper: "pure bulk A57 has timing issues when operating in the low
	// voltage region (0.5V)". Bulk Vth > 0.5V, so frequency is zero.
	te := Bulk28()
	if f := te.MaxFrequency(0.5, 0); f != 0 {
		t.Fatalf("bulk at 0.5V should be non-functional, got %.1f MHz", f/1e6)
	}
	if te.Vth0 <= 0.5 {
		t.Fatalf("bulk Vth0 = %.3f, want > 0.5", te.Vth0)
	}
}

func TestFBBBoostsLowVoltageFrequency(t *testing.T) {
	// Paper: FD-SOI reaches ~100MHz at 0.5V, "which increases to more than
	// 500MHz with forward body-bias".
	te := FDSOI28()
	noBias := te.MaxFrequency(0.5, 0)
	fbb1 := te.MaxFrequency(0.5, 1.0)
	if fbb1 < 4*noBias {
		t.Fatalf("1V FBB at 0.5V: %.0f MHz vs %.0f MHz unbiased, want >=4x", fbb1/1e6, noBias/1e6)
	}
	if fbb1 < 400e6 {
		t.Fatalf("1V FBB at 0.5V = %.0f MHz, want >400 MHz", fbb1/1e6)
	}
	full := te.MaxFrequency(0.5, te.BodyBiasMax)
	if full <= fbb1 {
		t.Fatalf("max FBB (%.0f MHz) should beat 1V FBB (%.0f MHz)", full/1e6, fbb1/1e6)
	}
}

func TestFDSOIFasterThanBulkAtIsoVoltage(t *testing.T) {
	fd, bk := FDSOI28(), Bulk28()
	for _, v := range []float64{0.6, 0.8, 1.0, 1.2} {
		if fd.MaxFrequency(v, 0) <= bk.MaxFrequency(v, 0) {
			t.Fatalf("FD-SOI should be faster than bulk at %.1fV", v)
		}
	}
}

func TestFrequencyMonotonicInVoltage(t *testing.T) {
	for _, te := range []*Technology{FDSOI28(), Bulk28()} {
		prev := -1.0
		for v := te.SRAMVmin; v <= te.VddMax; v += 0.01 {
			f := te.MaxFrequency(v, 0)
			if f < prev {
				t.Fatalf("%s: frequency not monotonic at %.2fV", te.Name, v)
			}
			prev = f
		}
	}
}

func TestVthShift85mVPerVolt(t *testing.T) {
	te := FDSOI28()
	d := te.VthEff(0) - te.VthEff(1)
	if math.Abs(d-0.085) > 1e-9 {
		t.Fatalf("Vth shift per volt of FBB = %v, want 0.085", d)
	}
}

func TestClampBias(t *testing.T) {
	te := FDSOI28()
	if got := te.ClampBias(5); got != 3 {
		t.Fatalf("ClampBias(5) = %v, want 3", got)
	}
	if got := te.ClampBias(-5); got != -1 {
		t.Fatalf("ClampBias(-5) = %v, want -1", got)
	}
	if got := te.ClampBias(0.7); got != 0.7 {
		t.Fatalf("ClampBias(0.7) = %v", got)
	}
}

func TestVoltageForRoundTrip(t *testing.T) {
	te := FDSOI28()
	for _, mhz := range []float64{150, 500, 1000, 2000, 3000} {
		hz := mhz * 1e6
		v, err := te.VoltageFor(hz, 0)
		if err != nil {
			t.Fatalf("VoltageFor(%v MHz): %v", mhz, err)
		}
		got := te.MaxFrequency(v, 0)
		if math.Abs(got-hz) > hz*1e-6 {
			t.Fatalf("round trip %v MHz -> %.4fV -> %.1f MHz", mhz, v, got/1e6)
		}
	}
}

func TestVoltageForClampsAtSRAMVmin(t *testing.T) {
	te := FDSOI28()
	// 50 MHz is below the 0.5V capability (~100MHz): supply stays at floor.
	v, err := te.VoltageFor(50e6, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v != te.SRAMVmin {
		t.Fatalf("voltage for 50MHz = %v, want SRAM floor %v", v, te.SRAMVmin)
	}
	op, err := te.OperatingPointFor(50e6, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !op.VoltageLimited {
		t.Fatal("50MHz operating point should be voltage-limited")
	}
	op2, err := te.OperatingPointFor(1e9, 0)
	if err != nil {
		t.Fatal(err)
	}
	if op2.VoltageLimited {
		t.Fatal("1GHz operating point should not be voltage-limited")
	}
}

func TestVoltageForUnreachable(t *testing.T) {
	te := Bulk28()
	_, err := te.VoltageFor(10e9, 0)
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("want ErrUnreachable, got %v", err)
	}
}

func TestVoltageForZeroFrequency(t *testing.T) {
	te := FDSOI28()
	v, err := te.VoltageFor(0, 0)
	if err != nil || v != te.SRAMVmin {
		t.Fatalf("VoltageFor(0) = %v, %v", v, err)
	}
}

func TestLeakageFactorNormalization(t *testing.T) {
	for _, te := range []*Technology{FDSOI28(), Bulk28()} {
		if got := te.LeakageFactor(te.VddNominal, 0); math.Abs(got-1) > 1e-12 {
			t.Fatalf("%s: LeakageFactor at nominal = %v, want 1", te.Name, got)
		}
	}
}

func TestLeakageIncreasesWithFBB(t *testing.T) {
	// Paper Sec. II-A item 1: FBB improves energy "at the cost of increased
	// leakage".
	te := FDSOI28()
	base := te.LeakageFactor(0.6, 0)
	fbb := te.LeakageFactor(0.6, 1.0)
	if fbb <= base {
		t.Fatalf("FBB leakage %v should exceed unbiased %v", fbb, base)
	}
}

func TestLeakageDecreasesWithVdd(t *testing.T) {
	te := FDSOI28()
	if te.LeakageFactor(0.5, 0) >= te.LeakageFactor(1.1, 0) {
		t.Fatal("leakage power should drop as Vdd drops")
	}
}

func TestSleepLeakageOrderOfMagnitude(t *testing.T) {
	// Paper Sec. II-A item 3: RBB sleep reduces leakage "by up to an order
	// of magnitude" and is state-retentive.
	te := FDSOI28()
	active := te.LeakageFactor(0.6, 0)
	sleep := te.SleepLeakageFactor(0.6)
	ratio := active / sleep
	if ratio < 5 || ratio > 20 {
		t.Fatalf("RBB sleep leakage reduction = %.1fx, want ~10x", ratio)
	}
}

func TestSleepLeakageWithoutRBBCapability(t *testing.T) {
	te := FDSOI28()
	te.BodyBiasMin = 0 // a part with no reverse capability
	if got, want := te.SleepLeakageFactor(0.6), te.LeakageFactor(0.6, 0); got != want {
		t.Fatalf("sleep factor without RBB = %v, want active %v", got, want)
	}
}

func TestBiasTransitionFasterThanDVFS(t *testing.T) {
	// Paper: back-bias can swing in <1us, much faster than supply DVFS.
	te := FDSOI28()
	if te.BiasTransitionTime.Microseconds() > 1 {
		t.Fatalf("FD-SOI bias transition = %v, want <=1us", te.BiasTransitionTime)
	}
}

func TestFunctionalLimits(t *testing.T) {
	te := FDSOI28()
	if te.Functional(0.45) {
		t.Fatal("0.45V is below the SRAM floor")
	}
	if te.Functional(te.VddMax + 0.1) {
		t.Fatal("above VddMax should be non-functional")
	}
	if !te.Functional(0.9) {
		t.Fatal("0.9V should be functional")
	}
}

func TestA57ReachesTargetSweepRange(t *testing.T) {
	// Fig. 1's x-axis spans 0..3.5GHz; FD-SOI+FBB must cover it.
	te := FDSOI28()
	if f := te.MaxFrequency(te.VddMax, te.BodyBiasMax); f < 3.5e9 {
		t.Fatalf("FD-SOI+FBB max = %.2f GHz, want >= 3.5", f/1e9)
	}
}

func TestQuickVoltageForInverse(t *testing.T) {
	te := FDSOI28()
	maxF := te.MaxFrequency(te.VddMax, 0)
	err := quick.Check(func(u uint16) bool {
		hz := 1e6 + float64(u)/65535*(maxF-1e6)
		v, err := te.VoltageFor(hz, 0)
		if err != nil {
			return false
		}
		// Delivered frequency must be >= requested (never overclocked
		// beyond capability, never under-volted).
		return te.MaxFrequency(v, 0) >= hz*(1-1e-9) && v >= te.SRAMVmin && v <= te.VddMax
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Fatal(err)
	}
}

func TestQuickLeakageMonotoneInBias(t *testing.T) {
	te := FDSOI28()
	err := quick.Check(func(a, b uint8) bool {
		// Map to bias range [-1, 3].
		ba := -1 + float64(a)/255*4
		bb := -1 + float64(b)/255*4
		if ba > bb {
			ba, bb = bb, ba
		}
		return te.LeakageFactor(0.8, ba) <= te.LeakageFactor(0.8, bb)*(1+1e-12)
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFitAlphaPowerRecoversParameters(t *testing.T) {
	// Generate anchors from known parameters and check recovery.
	const (
		kTrue   = 5e9
		vthTrue = 0.42
		alpha   = 1.5
	)
	f := func(v float64) float64 { return kTrue * math.Pow(v-vthTrue, alpha) / v }
	k, vth := fitAlphaPower(0.55, f(0.55), 1.2, f(1.2), alpha)
	if math.Abs(k-kTrue) > 1e-3*kTrue {
		t.Fatalf("K = %v, want %v", k, kTrue)
	}
	if math.Abs(vth-vthTrue) > 1e-9 {
		t.Fatalf("Vth = %v, want %v", vth, vthTrue)
	}
}
