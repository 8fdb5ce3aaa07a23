// Package power models the power consumption of the Cortex-A57 cores on
// top of the process-technology layer (paper Sec. II-C1).
//
// The paper extracts its core model from manufactured ARM-v8 devices
// (Samsung Exynos 5433 DVFS tables) and 28nm FD-SOI STM test chips, scaled
// by the A57/A9 pipeline ratio, then extends it into the near-threshold
// region. We reproduce that as:
//
//   - dynamic power  Pdyn = Ceff * Vdd^2 * f * activity, with Ceff
//     calibrated so one A57 dissipates ~1.2W of dynamic power at the
//     Exynos-class nominal point (1.9GHz, 1.1V);
//   - leakage power  Pleak = LeakRefW * tech.LeakageFactor(Vdd, Vbb),
//     with the reference wattage calibrated per technology (bulk leaks
//     more than FD-SOI at iso-conditions).
//
// The package also implements the paper's body-bias energy knob
// (Sec. II-A item 1): OptimalBias searches the forward-body-bias range for
// the supply/bias pair that minimizes total power at a target frequency,
// trading higher leakage for lower supply voltage. The "FD-SOI+FBB" curves
// of Fig. 1 are generated this way.
package power

import (
	"math"

	"ntcsim/internal/tech"
)

// Core calibration constants (see package comment).
const (
	// a57Ceff is the effective switched capacitance of one Cortex-A57 core
	// plus its private L1 caches, in farads: 1.2W / (1.1V^2 * 1.9GHz).
	a57Ceff = 1.2 / (1.1 * 1.1 * 1.9e9)

	// Per-technology leakage at the nominal point (Vdd=1.1V, no bias), W.
	fdsoiLeakRefW = 0.12
	bulkLeakRefW  = 0.25
)

// CoreModel is the power model of one core implemented in a given
// technology.
type CoreModel struct {
	Tech     *tech.Technology
	Ceff     float64 // effective switched capacitance, F
	LeakRefW float64 // leakage power at (VddNominal, Vbb=0), W
}

// NewA57 returns the Cortex-A57 power model for technology t, choosing the
// leakage calibration appropriate to the process flavor.
func NewA57(t *tech.Technology) *CoreModel {
	leak := fdsoiLeakRefW
	if t.VthShiftPerVolt < 0.05 {
		// Narrow body-bias response identifies the bulk flavor.
		leak = bulkLeakRefW
	}
	return &CoreModel{Tech: t, Ceff: a57Ceff, LeakRefW: leak}
}

// DynamicPower returns the switching power in watts at supply vdd,
// frequency hz, and activity factor in [0, 1].
func (m *CoreModel) DynamicPower(vdd, hz, activity float64) float64 {
	return m.Ceff * vdd * vdd * hz * activity
}

// LeakagePower returns the static power in watts at (vdd, vbb).
func (m *CoreModel) LeakagePower(vdd, vbb float64) float64 {
	return m.LeakRefW * m.Tech.LeakageFactor(vdd, vbb)
}

// Power returns total core power at operating point op with the given
// activity factor.
func (m *CoreModel) Power(op tech.OperatingPoint, activity float64) float64 {
	return m.DynamicPower(op.Vdd, op.FreqHz, activity) + m.LeakagePower(op.Vdd, op.Vbb)
}

// SleepPower returns the state-retentive sleep power (clocks gated, maximum
// reverse body bias applied; paper Sec. II-A item 3).
func (m *CoreModel) SleepPower(vdd float64) float64 {
	return m.LeakRefW * m.Tech.SleepLeakageFactor(vdd)
}

// IdlePower returns the power of a core that is idle at operating point op:
// the RBB-sleep power when sleep management is in effect, otherwise the
// standing leakage at the operating point's bias. This is the idle-capacity
// term shared by the governor's analytic replay and the request-serving
// simulator's measured busy-fraction accounting.
func (m *CoreModel) IdlePower(op tech.OperatingPoint, sleep bool) float64 {
	if sleep {
		return m.SleepPower(op.Vdd)
	}
	return m.LeakagePower(op.Vdd, op.Vbb)
}

// PointAt resolves the minimum-voltage operating point for frequency hz at
// body bias vbb and returns it with the total power at the given activity.
func (m *CoreModel) PointAt(hz, vbb, activity float64) (tech.OperatingPoint, float64, error) {
	op, err := m.Tech.OperatingPointFor(hz, vbb)
	if err != nil {
		return tech.OperatingPoint{}, 0, err
	}
	return op, m.Power(op, activity), nil
}

// OptimalBias searches the forward-body-bias range for the bias that
// minimizes total core power at target frequency hz (paper Sec. II-A
// item 1: "Operate at the best energy efficiency point for a given
// performance target"). It returns the resolved operating point and its
// power. Reverse bias is never selected for active operation.
//
// The search is a coarse grid refined by golden-section; the power-vs-bias
// curve is unimodal (dynamic savings saturate while leakage grows
// exponentially).
func (m *CoreModel) OptimalBias(hz, activity float64) (tech.OperatingPoint, float64, error) {
	lo, hi := 0.0, m.Tech.BodyBiasMax
	eval := func(vbb float64) (tech.OperatingPoint, float64, bool) {
		op, w, err := m.PointAt(hz, vbb, activity)
		if err != nil {
			return tech.OperatingPoint{}, math.Inf(1), false
		}
		return op, w, true
	}

	// Coarse scan to bracket the minimum (also handles frequencies only
	// reachable with some FBB, where small vbb values error out).
	const steps = 24
	bestOp, bestW, bestOK := eval(lo)
	bestVbb := lo
	for i := 1; i <= steps; i++ {
		vbb := lo + (hi-lo)*float64(i)/steps
		if op, w, ok := eval(vbb); ok && w < bestW {
			bestOp, bestW, bestOK, bestVbb = op, w, ok, vbb
		}
	}
	if !bestOK {
		// Not reachable even at max FBB: surface the underlying error.
		_, _, err := m.PointAt(hz, hi, activity)
		return tech.OperatingPoint{}, 0, err
	}

	// Golden-section refinement around the coarse winner.
	a := math.Max(lo, bestVbb-(hi-lo)/steps)
	b := math.Min(hi, bestVbb+(hi-lo)/steps)
	const phi = 0.6180339887498949
	for i := 0; i < 40; i++ {
		x1 := b - phi*(b-a)
		x2 := a + phi*(b-a)
		_, w1, ok1 := eval(x1)
		_, w2, ok2 := eval(x2)
		switch {
		case !ok1 && !ok2:
			a, b = x1, x2
		case !ok1 || (ok2 && w2 < w1):
			a = x1
		default:
			b = x2
		}
	}
	if op, w, ok := eval((a + b) / 2); ok && w <= bestW {
		return op, w, nil
	}
	return bestOp, bestW, nil
}
