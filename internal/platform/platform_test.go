package platform

import (
	"math"
	"testing"

	"ntcsim/internal/thermal"
)

func TestPaperOrganization(t *testing.T) {
	s := Default()
	// "The chip features a total of 36 cores" — 9 clusters x 4 cores.
	if s.TotalCores() != 36 {
		t.Fatalf("cores = %d, want 36", s.TotalCores())
	}
	if s.Clusters != 9 || s.Cluster.CoresPerCluster != 4 {
		t.Fatalf("organization %dx%d, want 9x4", s.Clusters, s.Cluster.CoresPerCluster)
	}
	if s.AreaBudgetMM2 != 300 || thermal.Default().TDPW != 100 {
		t.Fatal("budgets must match the paper (300mm^2, 100W)")
	}
}

func TestNineClustersFitTenDoNot(t *testing.T) {
	// "the server die can accommodate 9 clusters before hitting the area
	// limit"
	s := Default()
	if got := s.MaxClusters(); got != 9 {
		t.Fatalf("MaxClusters = %d, want 9", got)
	}
	if err := s.CheckBudgets(); err != nil {
		t.Fatalf("default config must fit: %v", err)
	}
	s.Clusters = 10
	if err := s.CheckBudgets(); err == nil {
		t.Fatal("10 clusters should exceed the area budget")
	}
}

// uncoreW sums the chip's uncore power parts.
func uncoreW(s *Spec, llcReadsPerSec, llcWritesPerSec, xbarPerSec float64) float64 {
	llcW, xbarW, ioW := s.UncorePower(llcReadsPerSec, llcWritesPerSec, xbarPerSec)
	return llcW + xbarW + ioW
}

func TestUncorePowerComposition(t *testing.T) {
	s := Default()
	idle := uncoreW(s, 0, 0, 0)
	// 9 x (4MB LLC ~2W + crossbar 25mW) + 5W peripherals ~ 23W.
	if idle < 18 || idle > 30 {
		t.Fatalf("idle uncore = %.1fW, want ~23W", idle)
	}
	busy := uncoreW(s, 200e6, 80e6, 300e6)
	if busy <= idle {
		t.Fatal("uncore power should grow with activity")
	}
	// The uncore must be leakage-dominated (energy proportionality problem
	// the paper's discussion section highlights).
	if (busy-idle)/busy > 0.5 {
		t.Fatalf("uncore dynamic share too high: idle %.1f busy %.1f", idle, busy)
	}
}

func TestMemoryPowerBackgroundDominatedAtLowBW(t *testing.T) {
	s := Default()
	bg := s.MemoryPowerW(0, 0)
	if bg <= 0 {
		t.Fatal("background memory power must be positive")
	}
	// 128 chips x E_IDLE x 1.6GHz ~ 15W.
	if bg < 10 || bg > 20 {
		t.Fatalf("background memory = %.2fW, want ~15W (128 chips x ~116mW)", bg)
	}
	busy := s.MemoryPowerW(20e9, 10e9)
	if busy <= bg {
		t.Fatal("memory power should scale with bandwidth")
	}
}

func TestCorePowerScalesWithCount(t *testing.T) {
	s := Default()
	op, err := s.Tech.OperatingPointFor(1e9, 0)
	if err != nil {
		t.Fatal(err)
	}
	dynW, leakW := s.CorePower(op, 1.0)
	full := dynW + leakW
	if full <= 0 {
		t.Fatal("core power must be positive")
	}
	single := s.Core.Power(op, 1.0)
	if math.Abs(full-36*single) > 1e-9 {
		t.Fatalf("chip core power %.2f != 36 x %.4f", full, single)
	}
}

func TestCoresFitPowerBudgetAtQoSFrequencies(t *testing.T) {
	// At the QoS-feasible frequencies (<= 2GHz) the 36 cores plus uncore
	// must fit the 100W chip budget.
	s := Default()
	op, err := s.Tech.OperatingPointFor(2e9, 0)
	if err != nil {
		t.Fatal(err)
	}
	dynW, leakW := s.CorePower(op, 1.0)
	chip := dynW + leakW + uncoreW(s, 100e6, 40e6, 150e6)
	if budget := thermal.Default().TDPW; chip > budget {
		t.Fatalf("chip power at 2GHz = %.1fW exceeds %v W budget", chip, budget)
	}
}

func TestServerPowerScopes(t *testing.T) {
	p := ServerPower{CoreDynW: 6, CoreLeakW: 4, LLCW: 12, XbarW: 3, IOW: 5, DRAMW: 5}
	if p.CoresW() != 10 || p.UncoreW() != 20 {
		t.Fatalf("cores = %v, uncore = %v", p.CoresW(), p.UncoreW())
	}
	if p.SoCW() != 30 {
		t.Fatalf("SoC = %v", p.SoCW())
	}
	if p.TotalW() != 35 {
		t.Fatalf("total = %v", p.TotalW())
	}
}

func TestMemoryCapacity64GB(t *testing.T) {
	s := Default()
	if got := s.Cluster.DRAM.TotalBytes(); got != 64<<30 {
		t.Fatalf("memory = %d bytes, want 64GB", got)
	}
}
