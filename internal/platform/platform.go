// Package platform assembles the paper's server platform (Sec. II-B, IV):
// a 300mm^2, 100W chip in 28nm FD-SOI holding 9 clusters of 4 Cortex-A57
// cores (36 cores total), each cluster with a 4MB 16-way 4-bank LLC and a
// cache-coherent crossbar; UltraSPARC-T2-class I/O peripherals along the
// chip edge; and four DDR4-1600 channels with 4 ranks each (64GB).
//
// The package owns the chip-level power aggregation at the paper's three
// scopes — cores, SoC (cores + uncore), server (SoC + memory) — and the
// first-order area model that justifies the 9-cluster organization
// ("the server die can accommodate 9 clusters before hitting the area
// limit").
package platform

import (
	"fmt"

	"ntcsim/internal/obs/timeseries"
	"ntcsim/internal/power"
	"ntcsim/internal/sim"
	"ntcsim/internal/tech"
	"ntcsim/internal/uncore"
)

// Area constants for the 28nm generation, mm^2. A Cortex-A57 core with its
// L1s occupies a little under 3mm^2 in 28nm; dense SRAM runs ~1.4mm^2 per
// MB including tag/periphery overheads at cache-array densities.
const (
	CoreAreaMM2      = 3.2
	LLCAreaPerMBMM2  = 1.4
	XbarAreaMM2      = 0.8
	PeripheryAreaMM2 = 40.0 // I/O pads, PHYs, memory controllers
	areaUtilization  = 0.70 // routing/integration overhead
)

// Spec describes one server platform instance.
type Spec struct {
	Tech     *tech.Technology
	Core     *power.CoreModel
	Clusters int
	// Cluster is the one description of a cluster: the simulator runs it
	// and the power and area models price it. Its DRAM is the whole
	// chip's memory system.
	Cluster     sim.Config
	Peripherals *uncore.Peripherals

	AreaBudgetMM2 float64
}

// Default returns the paper's platform: 9 clusters x 4 A57 cores on 28nm
// FD-SOI, 300mm^2 area budget, 64GB DDR4. The 100W chip power budget is
// thermal.Model.TDPW.
func Default() *Spec {
	t := tech.FDSOI28()
	return &Spec{
		Tech:          t,
		Core:          power.NewA57(t),
		Clusters:      9,
		Cluster:       sim.DefaultConfig(),
		Peripherals:   uncore.SunT2Peripherals(),
		AreaBudgetMM2: 300,
	}
}

// TotalCores returns the chip's core count (36 for the default).
func (s *Spec) TotalCores() int { return s.Clusters * s.Cluster.CoresPerCluster }

// ClusterAreaMM2 returns the silicon area of one cluster.
func (s *Spec) ClusterAreaMM2() float64 {
	llcMB := float64(s.Cluster.LLC.CapacityBytes) / (1 << 20)
	return float64(s.Cluster.CoresPerCluster)*CoreAreaMM2 + llcMB*LLCAreaPerMBMM2 + XbarAreaMM2
}

// ChipAreaMM2 returns the estimated die area, including integration
// overhead and the chip-edge periphery.
func (s *Spec) ChipAreaMM2() float64 {
	logic := float64(s.Clusters) * s.ClusterAreaMM2()
	return logic/areaUtilization + PeripheryAreaMM2
}

// MaxClusters returns how many clusters fit the area budget — the paper's
// sizing rule ("the server die can accommodate 9 clusters before hitting
// the area limit").
func (s *Spec) MaxClusters() int {
	avail := (s.AreaBudgetMM2 - PeripheryAreaMM2) * areaUtilization
	n := int(avail / s.ClusterAreaMM2())
	if n < 0 {
		return 0
	}
	return n
}

// CheckBudgets validates that the configuration honors its area budget.
func (s *Spec) CheckBudgets() error {
	if got := s.ChipAreaMM2(); got > s.AreaBudgetMM2 {
		return fmt.Errorf("platform: chip area %.0fmm^2 exceeds budget %.0fmm^2", got, s.AreaBudgetMM2)
	}
	return nil
}

// CorePower returns chip-level core power, all cores at the operating
// point with the given activity factor, as its dynamic and leakage parts.
func (s *Spec) CorePower(op tech.OperatingPoint, activity float64) (dynW, leakW float64) {
	n := float64(s.TotalCores())
	return n * s.Core.DynamicPower(op.Vdd, op.FreqHz, activity), n * s.Core.LeakagePower(op.Vdd, op.Vbb)
}

// UncorePower returns chip-level uncore power as its LLC, crossbar and
// I/O parts: per-cluster LLCs (leakage + access energy at the given
// per-cluster rates) and crossbars, and the chip-edge peripherals. The
// uncore is on its own voltage/frequency domain and does not scale with
// the cores' DVFS point (paper Sec. II-C2).
func (s *Spec) UncorePower(llcReadsPerSec, llcWritesPerSec, xbarPerSec float64) (llcW, xbarW, ioW float64) {
	cl := float64(s.Clusters)
	return cl * s.Cluster.LLC.Power(llcReadsPerSec, llcWritesPerSec),
		cl * uncore.CrossbarPower(xbarPerSec),
		s.Peripherals.Power()
}

// MemoryPowerW returns the memory-subsystem power at the given aggregate
// chip-level read/write bandwidth, using the paper's Table I scaling.
func (s *Spec) MemoryPowerW(readBW, writeBW float64) float64 {
	m := s.Cluster.DRAM
	return m.Energies().Power(m.Ranks(), readBW, writeBW)
}

// ServerPower is server power split into the six scopes of the energy
// ledger (timeseries.Ledger). The paper's three scopes (cores, SoC =
// cores + uncore, server = SoC + memory) are sums of these parts, so
// every total, efficiency and ledger reads the same numbers.
type ServerPower struct {
	CoreDynW  float64 // core switching
	CoreLeakW float64 // core static (incl. sleep and boost premiums)
	LLCW      float64 // last-level caches
	XbarW     float64 // crossbars
	IOW       float64 // chip-edge peripherals
	DRAMW     float64 // memory background + dynamic
}

// CoresW returns the cores' power.
func (p ServerPower) CoresW() float64 { return p.CoreDynW + p.CoreLeakW }

// UncoreW returns the uncore's power (LLC, crossbar, I/O).
func (p ServerPower) UncoreW() float64 { return p.LLCW + p.XbarW + p.IOW }

// SoCW returns cores + uncore (the processor die).
func (p ServerPower) SoCW() float64 { return p.CoresW() + p.UncoreW() }

// TotalW returns the full server power (SoC + memory).
func (p ServerPower) TotalW() float64 { return p.SoCW() + p.DRAMW }

// Ledger returns the energy of p held for the given seconds, scope by
// scope in integer nanojoules.
func (p ServerPower) Ledger(seconds float64) timeseries.Ledger {
	return timeseries.Ledger{
		CoreDynNJ:  timeseries.NJ(p.CoreDynW * seconds),
		CoreLeakNJ: timeseries.NJ(p.CoreLeakW * seconds),
		LLCNJ:      timeseries.NJ(p.LLCW * seconds),
		XbarNJ:     timeseries.NJ(p.XbarW * seconds),
		IONJ:       timeseries.NJ(p.IOW * seconds),
		DRAMNJ:     timeseries.NJ(p.DRAMW * seconds),
	}
}
