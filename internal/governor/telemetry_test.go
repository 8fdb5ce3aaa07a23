package governor

import (
	"math"
	"testing"
)

// TestCorePowerAtBusyBounds checks the one core-power function against
// the core model's primitives at both ends of the busy range: n idle
// cores draw n·IdlePower (leakage, or sleep power under RBB), n busy
// cores draw n·Power(op, 1), and a boosted step adds the FBB leakage
// premium over boostDuty of the interval.
func TestCorePowerAtBusyBounds(t *testing.T) {
	cfg := testConfig(t)
	core := cfg.Platform.Core
	n := cfg.Platform.TotalCores()
	nf := float64(n)
	for _, freq := range []float64{0.2e9, 0.5e9, 1.0e9, 2.0e9} {
		for _, d := range []Decision{
			{FreqHz: freq},
			{FreqHz: freq, Sleep: true},
			{FreqHz: freq, Boost: true},
		} {
			op, err := cfg.Platform.Tech.OperatingPointFor(freq, 0)
			if err != nil {
				t.Fatal(err)
			}
			idle := nf * core.IdlePower(op, d.Sleep)
			var premium float64
			if d.Boost {
				premium = boostDuty * (nf*core.LeakagePower(op.Vdd, cfg.Platform.Tech.BoostBias()) - idle)
			}
			for _, c := range []struct {
				busy, wantW, wantDynW float64
			}{
				{0, idle + premium, 0},
				{1, nf*core.Power(op, 1) + premium, nf * core.DynamicPower(op.Vdd, op.FreqHz, 1)},
			} {
				p, gotOp, err := cfg.CorePower(d, n, c.busy)
				if err != nil {
					t.Fatal(err)
				}
				if gotOp != op {
					t.Errorf("d=%+v: operating point %+v, want %+v", d, gotOp, op)
				}
				if p.UncoreW() != 0 || p.DRAMW != 0 {
					t.Errorf("d=%+v busy=%g: core power charges non-core scopes: %+v", d, c.busy, p)
				}
				if got := p.CoresW(); math.Abs(got-c.wantW) > 1e-12*c.wantW {
					t.Errorf("d=%+v busy=%g: %.15g W, want %.15g W", d, c.busy, got, c.wantW)
				}
				if math.Abs(p.CoreDynW-c.wantDynW) > 1e-12*c.wantW {
					t.Errorf("d=%+v busy=%g: dynamic %.15g W, want %.15g W", d, c.busy, p.CoreDynW, c.wantDynW)
				}
			}
		}
	}
}

// TestSharedPowerChargesStanding checks that the shared power is the
// configured standing breakdown, scope by scope, plus the request-rate-
// proportional memory dynamic power under DRAM.
func TestSharedPowerChargesStanding(t *testing.T) {
	cfg := testConfig(t)
	for _, lambda := range []float64{0, 500, 2200} {
		want := cfg.Standing
		want.DRAMW += lambda * cfg.MemDynPerReq
		if got := cfg.SharedPower(lambda); got != want {
			t.Fatalf("lambda=%g: shared power %+v, want %+v", lambda, got, want)
		}
	}
	if cfg.Standing.CoresW() != 0 || cfg.SharedPower(0).TotalW() != 10+5+8+15 {
		t.Fatalf("standing breakdown not charged as configured: %+v", cfg.SharedPower(0))
	}
}
