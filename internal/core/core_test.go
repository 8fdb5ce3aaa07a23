package core

import (
	"context"
	"math"
	"testing"

	"ntcsim/internal/qos"
	"ntcsim/internal/workload"
)

// testExplorer returns a reduced-cost explorer for tests.
func testExplorer(t *testing.T) *Explorer {
	t.Helper()
	e := NewExplorer()
	e.WarmInstr = 1_000_000
	e.SettleCycles = 10_000
	return e
}

var testFreqs = []float64{0.1e9, 0.3e9, 0.5e9, 1.0e9, 1.5e9, 2.0e9}

// sweepOnce caches one sweep per workload across tests (sweeps are the
// expensive operation here).
var sweepCache = map[string]*Sweep{}

func sweep(t *testing.T, p *workload.Profile) *Sweep {
	t.Helper()
	if s, ok := sweepCache[p.Name]; ok {
		return s
	}
	e := testExplorer(t)
	s, err := e.Sweep(context.Background(), p, testFreqs)
	if err != nil {
		t.Fatal(err)
	}
	sweepCache[p.Name] = s
	return s
}

func TestSweepBasicShape(t *testing.T) {
	s := sweep(t, workload.WebSearch())
	if len(s.Points) != len(testFreqs) {
		t.Fatalf("points = %d, want %d", len(s.Points), len(testFreqs))
	}
	for i, pt := range s.Points {
		if pt.FreqHz != testFreqs[i] {
			t.Fatalf("point %d frequency %v, want ascending order", i, pt.FreqHz)
		}
		if pt.UIPSChip <= 0 {
			t.Fatalf("point %d has no throughput", i)
		}
		if pt.Power.CoresW <= 0 || pt.Power.UncoreW <= 0 || pt.Power.MemoryW <= 0 {
			t.Fatalf("point %d power breakdown: %+v", i, pt.Power)
		}
		if pt.Samples < 2 {
			t.Fatalf("point %d sampled %d times", i, pt.Samples)
		}
	}
	if s.BaselineUIPS <= 0 {
		t.Fatal("baseline UIPS missing")
	}
}

func TestThroughputRisesWithFrequency(t *testing.T) {
	s := sweep(t, workload.WebSearch())
	first, last := s.Points[0], s.Points[len(s.Points)-1]
	if last.UIPSChip <= first.UIPSChip {
		t.Fatalf("UIPS at 2GHz (%.3g) should exceed 100MHz (%.3g)",
			last.UIPSChip, first.UIPSChip)
	}
}

func TestVoltageScalesWithFrequency(t *testing.T) {
	s := sweep(t, workload.WebSearch())
	prev := 0.0
	for _, pt := range s.Points {
		if pt.Op.Vdd < prev {
			t.Fatalf("Vdd must be non-decreasing in frequency")
		}
		prev = pt.Op.Vdd
	}
	// 100MHz runs at the SRAM floor; 2GHz needs ~1V.
	if s.Points[0].Op.Vdd != 0.5 {
		t.Fatalf("100MHz Vdd = %v, want the 0.5V floor", s.Points[0].Op.Vdd)
	}
	if hi := s.Points[len(s.Points)-1].Op.Vdd; hi < 0.85 {
		t.Fatalf("2GHz Vdd = %v, implausibly low", hi)
	}
}

func TestCoresEfficiencyPeaksLow(t *testing.T) {
	// Fig. 3a: cores-only efficiency rises as frequency drops (down to the
	// voltage floor).
	s := sweep(t, workload.WebSearch())
	o := s.Optima()
	if o.BestCores.FreqHz > 0.5e9 {
		t.Fatalf("cores-best frequency = %.0f MHz, want low (voltage-scaling region)",
			o.BestCores.FreqHz/1e6)
	}
	last := s.Points[len(s.Points)-1]
	if o.BestCores.EffCores <= last.EffCores {
		t.Fatal("low-frequency cores efficiency should beat 2GHz")
	}
}

func TestSoCOptimumInterior(t *testing.T) {
	// Fig. 3b: constant uncore power pushes the SoC optimum to ~1GHz —
	// strictly above the cores optimum, strictly below driven by cores.
	s := sweep(t, workload.WebSearch())
	o := s.Optima()
	if o.BestSoC.FreqHz <= o.BestCores.FreqHz {
		t.Fatalf("SoC optimum (%.0f MHz) must sit above cores optimum (%.0f MHz)",
			o.BestSoC.FreqHz/1e6, o.BestCores.FreqHz/1e6)
	}
	// The SoC optimum must be interior: better than both sweep ends.
	first, last := s.Points[0], s.Points[len(s.Points)-1]
	if o.BestSoC.EffSoC <= first.EffSoC || o.BestSoC.EffSoC <= last.EffSoC {
		t.Fatal("SoC efficiency should peak at an interior frequency")
	}
}

func TestServerOptimumAtOrAboveSoC(t *testing.T) {
	// Fig. 3c: adding constant memory background power moves the optimum
	// further right ("the optimal efficiency point moves to the right").
	s := sweep(t, workload.WebSearch())
	o := s.Optima()
	if o.BestServer.FreqHz < o.BestSoC.FreqHz {
		t.Fatalf("server optimum (%.0f MHz) must not sit below SoC optimum (%.0f MHz)",
			o.BestServer.FreqHz/1e6, o.BestSoC.FreqHz/1e6)
	}
}

func TestScaleOutQoSFeasibleAtLowFrequency(t *testing.T) {
	// Fig. 2 / Sec. V-A: scale-out apps meet QoS down to 200-500MHz.
	s := sweep(t, workload.WebSearch())
	o := s.Optima()
	if !o.HasFeasible {
		t.Fatal("web-search should meet QoS somewhere in the sweep")
	}
	if o.MinFeasibleHz > 0.5e9 {
		t.Fatalf("min feasible frequency = %.0f MHz, want <= 500MHz", o.MinFeasibleHz/1e6)
	}
	// The 2GHz point must comfortably meet QoS.
	last := s.Points[len(s.Points)-1]
	if !last.QoSOK || last.Metric >= 1 {
		t.Fatalf("2GHz should meet QoS, metric %.3f", last.Metric)
	}
}

func TestQoSMetricMonotoneDecreasingInFrequency(t *testing.T) {
	// Normalized latency falls as frequency (throughput) rises. Sampling
	// noise allows tiny inversions; require no large ones.
	s := sweep(t, workload.WebSearch())
	for i := 1; i < len(s.Points); i++ {
		if s.Points[i].Metric > s.Points[i-1].Metric*1.10 {
			t.Fatalf("normalized latency rose markedly with frequency at %.0f MHz",
				s.Points[i].FreqHz/1e6)
		}
	}
}

func TestVMDegradationBounds(t *testing.T) {
	// Sec. V-A: with the 4x bound frequency can drop deep; with 2x it
	// stays higher. The crossover frequencies must be ordered.
	s := sweep(t, workload.VMHighMem())
	var f2x, f4x float64
	for _, pt := range s.Points {
		deg := qos.Degradation(s.BaselineUIPS, pt.UIPSChip)
		if f4x == 0 && deg <= qos.DegradationRelaxed {
			f4x = pt.FreqHz
		}
		if f2x == 0 && deg <= qos.DegradationStrict {
			f2x = pt.FreqHz
		}
	}
	if f4x == 0 || f2x == 0 {
		t.Fatal("both degradation bounds should be satisfiable in the sweep")
	}
	if f4x > f2x {
		t.Fatalf("4x bound allows %.0f MHz, must be <= 2x bound %.0f MHz",
			f4x/1e6, f2x/1e6)
	}
	if f4x > 0.7e9 {
		t.Fatalf("4x bound should reach below ~700MHz, got %.0f MHz", f4x/1e6)
	}
}

func TestVMHighMemBeatsLowMemUIPS(t *testing.T) {
	// Sec. V-B1: "the UIPS of VMs high-mem is higher than VMs low-mem".
	hi := sweep(t, workload.VMHighMem())
	lo := sweep(t, workload.VMLowMem())
	for i := range hi.Points {
		if hi.Points[i].UIPSChip <= lo.Points[i].UIPSChip {
			t.Fatalf("at %.0f MHz high-mem UIPS (%.3g) should exceed low-mem (%.3g)",
				hi.Points[i].FreqHz/1e6, hi.Points[i].UIPSChip, lo.Points[i].UIPSChip)
		}
	}
}

func TestSweepValidation(t *testing.T) {
	e := testExplorer(t)
	if _, err := e.Sweep(context.Background(), workload.WebSearch(), nil); err == nil {
		t.Fatal("empty frequency list should error")
	}
	if _, err := e.Sweep(context.Background(), workload.WebSearch(), []float64{-1}); err == nil {
		t.Fatal("negative frequency should error")
	}
	if _, err := e.Sweep(context.Background(), workload.WebSearch(), []float64{50e9}); err == nil {
		t.Fatal("unreachable frequency should error")
	}
}

func TestFig1CurveProperties(t *testing.T) {
	curves := Fig1Curves(36, Fig1Frequencies())
	if len(curves) != 3 {
		t.Fatalf("curves = %d, want bulk/fdsoi/fdsoi+fbb", len(curves))
	}
	byLabel := map[string]TechCurve{}
	for _, c := range curves {
		byLabel[c.Label] = c
	}
	bulk, fdsoi, fbb := byLabel["bulk"], byLabel["fdsoi"], byLabel["fdsoi+fbb"]
	for i := range fdsoi.Points {
		b, f, x := bulk.Points[i], fdsoi.Points[i], fbb.Points[i]
		if f.FreqHz <= 3.2e9 && !f.Reachable {
			t.Fatalf("FD-SOI should reach %.1f GHz", f.FreqHz/1e9)
		}
		if b.Reachable && f.Reachable {
			if f.Vdd > b.Vdd+1e-9 {
				t.Fatalf("at %.1f GHz FD-SOI Vdd %.3f should not exceed bulk %.3f",
					f.FreqHz/1e9, f.Vdd, b.Vdd)
			}
			if f.ChipPowerW >= b.ChipPowerW {
				t.Fatalf("at %.1f GHz FD-SOI power should beat bulk", f.FreqHz/1e9)
			}
		}
		if x.Reachable && f.Reachable && x.ChipPowerW > f.ChipPowerW*(1+1e-9) {
			t.Fatalf("at %.1f GHz optimal FBB must not be worse than zero bias", f.FreqHz/1e9)
		}
	}
	// Bulk must run out of steam before the top of the sweep; FBB must
	// cover all of it (paper: FD-SOI+FBB extends the range).
	lastBulk := bulk.Points[len(bulk.Points)-1]
	if lastBulk.Reachable {
		t.Fatal("bulk should not reach 3.5GHz")
	}
	if !fbb.Points[len(fbb.Points)-1].Reachable {
		t.Fatal("FD-SOI+FBB should reach 3.5GHz")
	}
}

func TestTableIMatchesPaper(t *testing.T) {
	e := TableI()
	if math.Abs(e.IdlePerCycleNJ-0.0728)/0.0728 > 0.01 {
		t.Fatalf("E_IDLE = %v", e.IdlePerCycleNJ)
	}
	if math.Abs(e.ReadPerByteNJ-0.2566)/0.2566 > 0.01 {
		t.Fatalf("E_READ = %v", e.ReadPerByteNJ)
	}
	if math.Abs(e.WritePerByteNJ-0.2495)/0.2495 > 0.01 {
		t.Fatalf("E_WRITE = %v", e.WritePerByteNJ)
	}
}

func TestSleepAnalysis(t *testing.T) {
	e := testExplorer(t)
	rep, err := e.SleepAnalysis(0.5e9)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Reduction < 5 || rep.Reduction > 20 {
		t.Fatalf("RBB sleep reduction = %.1fx, want ~10x", rep.Reduction)
	}
	if rep.RBBSleepW >= rep.ActiveIdleW {
		t.Fatal("sleep must beat active idle")
	}
	if !rep.StateRetentive {
		t.Fatal("body-bias sleep is state-retentive by construction")
	}
	if rep.TransitionTime.Microseconds() > 1 {
		t.Fatalf("bias transition = %v, want <= 1us", rep.TransitionTime)
	}
}

func TestBoostAnalysis(t *testing.T) {
	e := testExplorer(t)
	rep, err := e.BoostAnalysis(0.5)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: ~100MHz at 0.5V unbiased, >500MHz with FBB.
	if rep.BaseFreqHz > 150e6 {
		t.Fatalf("base at 0.5V = %.0f MHz", rep.BaseFreqHz/1e6)
	}
	if rep.BoostFreqHz < 500e6 {
		t.Fatalf("boost at 0.5V = %.0f MHz, want > 500MHz", rep.BoostFreqHz/1e6)
	}
	if rep.Speedup < 4 {
		t.Fatalf("speedup = %.1fx", rep.Speedup)
	}
	if rep.BoostPowerW <= rep.BasePowerW {
		t.Fatal("boost costs power")
	}
	if _, err := e.BoostAnalysis(0.3); err == nil {
		t.Fatal("0.3V is below the SRAM floor")
	}
}

func TestLPDDR4Explorer(t *testing.T) {
	e := testExplorer(t)
	lp := e.LPDDR4Explorer()
	ddr4bg := e.Platform.MemoryPowerW(0, 0)
	lpbg := lp.Platform.MemoryPowerW(0, 0)
	if lpbg >= ddr4bg/3 {
		t.Fatalf("LPDDR4 background %.3fW should be far below DDR4 %.3fW", lpbg, ddr4bg)
	}
	// The original explorer must be untouched.
	if e.Platform.Cluster.DRAM.Power.Name == lp.Platform.Cluster.DRAM.Power.Name {
		t.Fatal("LPDDR4Explorer must not mutate the original")
	}
}

func TestDefaultFrequenciesCoverPaperRange(t *testing.T) {
	fs := DefaultFrequencies()
	if fs[0] != 0.1e9 || fs[len(fs)-1] != 2.0e9 {
		t.Fatal("sweep must span 100MHz..2GHz (Fig. 2-4 x-axis)")
	}
	for i := 1; i < len(fs); i++ {
		if fs[i] <= fs[i-1] {
			t.Fatal("frequencies must be ascending")
		}
	}
}
