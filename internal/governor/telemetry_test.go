package governor

import (
	"math"
	"testing"
)

// TestCorePowerPartsMatchesCorePower pins the decomposition contract:
// DynW+LeakW is the same watts CorePower charges, only re-associated, so
// the energy ledger conserves by construction.
func TestCorePowerPartsMatchesCorePower(t *testing.T) {
	cfg := testConfig(t)
	for _, freq := range []float64{0.2e9, 0.5e9, 1.0e9, 2.0e9} {
		for _, busy := range []float64{0, 0.3, 0.85, 1} {
			for _, d := range []Decision{
				{FreqHz: freq},
				{FreqHz: freq, Sleep: true},
				{FreqHz: freq, Boost: true},
			} {
				want, err := cfg.CorePower(d, cfg.Platform.TotalCores(), busy)
				if err != nil {
					t.Fatal(err)
				}
				parts, err := cfg.CorePowerParts(d, cfg.Platform.TotalCores(), busy)
				if err != nil {
					t.Fatal(err)
				}
				got := parts.DynW + parts.LeakW
				if diff := math.Abs(got - want); diff > 1e-9*math.Max(1, want) {
					t.Errorf("f=%g busy=%g d=%+v: parts sum %.15g, CorePower %.15g",
						freq, busy, d, got, want)
				}
				if parts.Vdd <= 0 {
					t.Errorf("f=%g: parts carry no Vdd", freq)
				}
			}
		}
	}
}

// TestSharedPowerPartsMatchesSharedPower checks both the attributed and
// the fallback path (no breakdown configured → all uncore watts under IO).
func TestSharedPowerPartsMatchesSharedPower(t *testing.T) {
	cfg := testConfig(t)
	for _, lambda := range []float64{0, 500, 2200} {
		want := cfg.SharedPower(lambda)
		p := cfg.SharedPowerParts(lambda)
		got := p.LLCW + p.XbarW + p.IOW + p.DRAMW
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("fallback: parts sum %g, SharedPower %g", got, want)
		}
		if p.IOW != cfg.UncoreW || p.LLCW != 0 || p.XbarW != 0 {
			t.Fatalf("fallback should put the whole UncoreW under IO: %+v", p)
		}
	}
	// With a breakdown, the scopes split but the sum must not move.
	cfg.Uncore = UncoreBreakdown{LLCW: 10, XbarW: 5, IOW: 8}
	cfg.UncoreW = cfg.Uncore.TotalW()
	p := cfg.SharedPowerParts(1000)
	if p.LLCW != 10 || p.XbarW != 5 || p.IOW != 8 {
		t.Fatalf("breakdown not honored: %+v", p)
	}
	if got, want := p.LLCW+p.XbarW+p.IOW+p.DRAMW, cfg.SharedPower(1000); math.Abs(got-want) > 1e-9 {
		t.Fatalf("breakdown: parts sum %g, SharedPower %g", got, want)
	}
}
