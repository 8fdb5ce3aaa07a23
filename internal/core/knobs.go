package core

import (
	"fmt"
	"time"

	"ntcsim/internal/dram"
	"ntcsim/internal/qos"
	"ntcsim/internal/tech"
	"ntcsim/internal/workload"
)

// SleepReport quantifies the FD-SOI reverse-body-bias sleep mode (paper
// Sec. II-A item 3 and the energy-proportionality discussion in Sec. V-C).
type SleepReport struct {
	Vdd            float64
	ActiveIdleW    float64 // chip cores clock-gated, zero bias
	RBBSleepW      float64 // chip cores under reverse-bias sleep
	Reduction      float64 // ActiveIdleW / RBBSleepW
	TransitionTime time.Duration
	StateRetentive bool
}

// SleepAnalysis evaluates the sleep knob at the operating voltage of the
// given frequency.
func (e *Explorer) SleepAnalysis(freqHz float64) (SleepReport, error) {
	spec := e.Platform
	op, err := spec.Tech.OperatingPointFor(freqHz, 0)
	if err != nil {
		return SleepReport{}, err
	}
	n := float64(spec.TotalCores())
	idle := n * spec.Core.LeakagePower(op.Vdd, 0)
	sleep := n * spec.Core.SleepPower(op.Vdd)
	return SleepReport{
		Vdd:            op.Vdd,
		ActiveIdleW:    idle,
		RBBSleepW:      sleep,
		Reduction:      idle / sleep,
		TransitionTime: spec.Tech.BiasTransitionTime,
		StateRetentive: true,
	}, nil
}

// BoostReport quantifies the FBB boost knob (paper Sec. II-A item 2:
// "temporarily boost the operating frequency of processors" to manage
// computation spikes, with sub-microsecond transitions).
type BoostReport struct {
	Vdd            float64
	BaseFreqHz     float64 // zero-bias capability at Vdd
	BoostFreqHz    float64 // max-FBB capability at Vdd
	Speedup        float64
	BasePowerW     float64 // chip power at the base point
	BoostPowerW    float64 // chip power while boosted
	TransitionTime time.Duration
}

// boostBiasV is the forward bias applied in boost mode — the 1.3V swing
// the paper cites for the STM A9 test chip ("the back-bias voltage of a
// 5mm^2 Cortex A9 processor can switch between 0V and 1.3V in less than
// 1us"). Full-range FBB is reserved for the per-point energy optimization.
const boostBiasV = 1.3

// BoostAnalysis evaluates the boost knob at a fixed supply voltage.
func (e *Explorer) BoostAnalysis(vdd float64) (BoostReport, error) {
	spec := e.Platform
	if !spec.Tech.Functional(vdd) {
		return BoostReport{}, fmt.Errorf("core: %.2fV is outside the functional range", vdd)
	}
	bias := spec.Tech.ClampBias(boostBiasV)
	base := spec.Tech.MaxFrequency(vdd, 0)
	boost := spec.Tech.MaxFrequency(vdd, bias)
	if base <= 0 {
		return BoostReport{}, fmt.Errorf("core: non-functional at %.2fV without bias", vdd)
	}
	n := float64(spec.TotalCores())
	basePw := n * spec.Core.Power(tech.OperatingPoint{Vdd: vdd, FreqHz: base}, LoadActivity)
	boostPw := n * spec.Core.Power(tech.OperatingPoint{Vdd: vdd, Vbb: bias, FreqHz: boost}, LoadActivity)
	return BoostReport{
		Vdd:            vdd,
		BaseFreqHz:     base,
		BoostFreqHz:    boost,
		Speedup:        boost / base,
		BasePowerW:     basePw,
		BoostPowerW:    boostPw,
		TransitionTime: spec.Tech.BiasTransitionTime,
	}, nil
}

// LPDDR4Explorer returns a copy of the explorer whose memory subsystem
// uses mobile DRAM — the paper's discussion-section what-if ("memory
// technologies that exhibit lower background power than DDR4, such as
// mobile DRAM (LPDDR4), could be used to increase the energy
// proportionality of the servers").
func (e *Explorer) LPDDR4Explorer() *Explorer {
	c := *e
	spec := *e.Platform
	spec.Memory.Timing = dram.LPDDR4()
	spec.Memory.Power = dram.LPDDR4Power()
	c.Platform = &spec
	simCfg := e.Sim
	simCfg.DRAM.Timing = dram.LPDDR4()
	simCfg.DRAM.Power = dram.LPDDR4Power()
	c.Sim = simCfg
	return &c
}

// ConsolidationPoint reports the oversubscription headroom at one
// operating point of a virtualized sweep (paper Sec. V-C: under relaxed
// public-cloud constraints "the optimal energy efficiency point could be
// adjusted to accommodate more workloads on the same server").
type ConsolidationPoint struct {
	FreqHz float64
	// Degradation already incurred by frequency scaling.
	Degradation float64
	// Headroom is the additional oversubscription factor available before
	// the degradation limit is reached (1.0 = no headroom).
	Headroom float64
	// EffServer is the server efficiency at this point.
	EffServer float64
}

// Consolidation evaluates oversubscription headroom across a sweep under
// the given degradation limit. Time-sharing a core by a factor k
// multiplies every VM's execution time by k, so the residual headroom at
// frequency f is limit / degradation(f).
func Consolidation(sw *Sweep, degradationLimit float64) []ConsolidationPoint {
	pts := make([]ConsolidationPoint, 0, len(sw.Points))
	for _, p := range sw.Points {
		deg := qos.Degradation(sw.BaselineUIPS, p.UIPSChip)
		head := degradationLimit / deg
		if head < 0 {
			head = 0
		}
		pts = append(pts, ConsolidationPoint{
			FreqHz:      p.FreqHz,
			Degradation: deg,
			Headroom:    head,
			EffServer:   p.EffServer,
		})
	}
	return pts
}

// BestConsolidation picks the point maximizing throughput-weighted server
// efficiency among points with at least 1x headroom.
func BestConsolidation(pts []ConsolidationPoint) (ConsolidationPoint, bool) {
	var best ConsolidationPoint
	found := false
	for _, p := range pts {
		if p.Headroom >= 1 && (!found || p.EffServer*p.Headroom > best.EffServer*best.Headroom) {
			best = p
			found = true
		}
	}
	return best, found
}

// VMFleet sizes a consolidated deployment from a Bitbrains-style VM
// population: how many of the sampled VMs fit on one server's memory and
// cores at the chosen operating point.
type VMFleet struct {
	VMs             int
	TotalMemBytes   uint64
	MemoryLimited   bool
	VMsPerCore      float64
	DegradationEach float64
}

// PackVMs packs VMs (in order) onto one server at the consolidation point,
// stopping at the memory capacity or the degradation limit.
func (e *Explorer) PackVMs(vms []workload.VMSpec, cp ConsolidationPoint, degradationLimit float64) VMFleet {
	capBytes := e.Platform.Memory.TotalBytes()
	cores := e.Platform.TotalCores()
	var fleet VMFleet
	for _, vm := range vms {
		if fleet.TotalMemBytes+vm.ProvisionedBytes > capBytes {
			fleet.MemoryLimited = true
			break
		}
		perCore := float64(fleet.VMs+1) / float64(cores)
		// Time-sharing multiplies the DVFS degradation.
		share := perCore
		if share < 1 {
			share = 1
		}
		if cp.Degradation*share > degradationLimit {
			break
		}
		fleet.TotalMemBytes += vm.ProvisionedBytes
		fleet.VMs++
	}
	fleet.VMsPerCore = float64(fleet.VMs) / float64(cores)
	share := fleet.VMsPerCore
	if share < 1 {
		share = 1
	}
	fleet.DegradationEach = cp.Degradation * share
	return fleet
}
