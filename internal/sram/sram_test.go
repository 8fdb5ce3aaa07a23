package sram

import (
	"testing"
	"testing/quick"
	"time"
)

func slice1MB() Config {
	cfg := DefaultLLCConfig()
	cfg.CapacityBytes = 1 << 20
	cfg.Banks = 1
	return cfg
}

func TestOneMBSliceAround500mW(t *testing.T) {
	// Paper Sec. II-C2: "A 1MB slice of the LLC dissipates power in the
	// order of 500mW, mostly due to leakage."
	m := slice1MB()
	// Typical load: 50M reads/s + 20M writes/s.
	p := m.Power(50e6, 20e6)
	if p < 0.35 || p > 0.65 {
		t.Fatalf("1MB slice power = %.3fW, want ~0.5W", p)
	}
}

func TestLeakageDominates(t *testing.T) {
	m := slice1MB()
	leak := m.LeakagePower()
	total := m.Power(50e6, 20e6)
	if leak/total < 0.75 {
		t.Fatalf("leakage fraction = %.2f, want mostly leakage (>0.75)", leak/total)
	}
}

func TestLeakageScalesWithCapacity(t *testing.T) {
	small := slice1MB()
	cfg := slice1MB()
	cfg.CapacityBytes = 4 << 20
	large := cfg
	ratio := large.LeakagePower() / small.LeakagePower()
	if ratio < 3.99 || ratio > 4.01 {
		t.Fatalf("4x capacity should give 4x leakage, got %.3fx", ratio)
	}
}

func TestClusterLLCPower(t *testing.T) {
	// The paper's 4MB cluster LLC should land near 4x500mW = 2W.
	m := DefaultLLCConfig()
	p := m.Power(100e6, 40e6)
	if p < 1.5 || p > 2.6 {
		t.Fatalf("4MB LLC power = %.3fW, want ~2W", p)
	}
}

func TestWriteCostsMoreThanRead(t *testing.T) {
	m := DefaultLLCConfig()
	if m.WriteEnergy() <= m.ReadEnergy() {
		t.Fatal("write energy should exceed read energy")
	}
}

func TestAccessEnergyGrowsWithAssociativity(t *testing.T) {
	lo := slice1MB()
	lo.Associativity = 4
	hi := slice1MB()
	hi.Associativity = 16
	if hi.ReadEnergy() <= lo.ReadEnergy() {
		t.Fatal("more ways probed should cost more energy")
	}
}

func TestLatencyGrowsWithCapacity(t *testing.T) {
	small := slice1MB()
	cfg := slice1MB()
	cfg.CapacityBytes = 16 << 20
	large := cfg
	if large.AccessLatency() <= small.AccessLatency() {
		t.Fatal("larger array should be slower")
	}
}

func TestBankingReducesLatency(t *testing.T) {
	mono := slice1MB()
	mono.CapacityBytes = 4 << 20
	banked := mono
	banked.Banks = 4
	if banked.AccessLatency() >= mono.AccessLatency() {
		t.Fatal("banking should reduce per-access latency")
	}
}

func TestDefaultLLCLatencyPlausible(t *testing.T) {
	m := DefaultLLCConfig()
	lat := m.AccessLatency()
	if lat < 2*time.Nanosecond || lat > 15*time.Nanosecond {
		t.Fatalf("4MB LLC latency = %v, want single-digit ns", lat)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{CapacityBytes: 0, Associativity: 8, LineBytes: 64, Banks: 1},
		{CapacityBytes: 1 << 20, Associativity: 0, LineBytes: 64, Banks: 1},
		{CapacityBytes: 1 << 20, Associativity: 8, LineBytes: 0, Banks: 1},
		{CapacityBytes: 1 << 20, Associativity: 8, LineBytes: 64, Banks: 0},
		{CapacityBytes: 1000, Associativity: 8, LineBytes: 64, Banks: 1}, // line doesn't divide
	}
	for i, cfg := range bad {
		if cfg.Validate() == nil {
			t.Errorf("config %d should be rejected", i)
		}
	}
}

func TestQuickPowerMonotoneInRate(t *testing.T) {
	m := DefaultLLCConfig()
	err := quick.Check(func(a, b uint32) bool {
		r1, r2 := float64(a), float64(b)
		if r1 > r2 {
			r1, r2 = r2, r1
		}
		return m.Power(r1, 0) <= m.Power(r2, 0)
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestQuickEnergiesPositive(t *testing.T) {
	err := quick.Check(func(capMB, ways uint8) bool {
		cfg := DefaultLLCConfig()
		cfg.CapacityBytes = (1 + int(capMB%16)) << 20
		cfg.Associativity = 1 + int(ways%32)
		if cfg.Validate() != nil {
			return false
		}
		return cfg.ReadEnergy() > 0 && cfg.WriteEnergy() > 0 && cfg.LeakagePower() > 0 &&
			cfg.AccessLatency() > 0
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}
