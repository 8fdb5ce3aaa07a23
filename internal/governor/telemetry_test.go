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

// TestSharedPowerPartsMatchesSharedPower checks that the ledger scopes
// carry the configured uncore breakdown and sum to SharedPower.
func TestSharedPowerPartsMatchesSharedPower(t *testing.T) {
	cfg := testConfig(t)
	for _, lambda := range []float64{0, 500, 2200} {
		p := cfg.SharedPowerParts(lambda)
		if p.LLCW != cfg.Uncore.LLCW || p.XbarW != cfg.Uncore.XbarW || p.IOW != cfg.Uncore.IOW {
			t.Fatalf("breakdown not honored: %+v, uncore %+v", p, cfg.Uncore)
		}
		if got, want := p.LLCW+p.XbarW+p.IOW+p.DRAMW, cfg.SharedPower(lambda); math.Abs(got-want) > 1e-9 {
			t.Fatalf("lambda=%g: parts sum %g, SharedPower %g", lambda, got, want)
		}
	}
}
