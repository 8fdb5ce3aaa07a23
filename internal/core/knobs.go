package core

import (
	"fmt"
	"time"

	"ntcsim/internal/dram"
	"ntcsim/internal/tech"
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

// BoostAnalysis evaluates the boost knob at a fixed supply voltage.
func (e *Explorer) BoostAnalysis(vdd float64) (BoostReport, error) {
	spec := e.Platform
	if !spec.Tech.Functional(vdd) {
		return BoostReport{}, fmt.Errorf("core: %.2fV is outside the functional range", vdd)
	}
	bias := spec.Tech.BoostBias()
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
	spec.Cluster.DRAM.Timing = dram.LPDDR4()
	spec.Cluster.DRAM.Power = dram.LPDDR4Power()
	c.Platform = &spec
	return &c
}
