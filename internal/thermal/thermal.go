// Package thermal provides the first-order thermal and dark-silicon model
// behind the paper's TDP argument (Sec. V-B1: "Maximum energy-efficiency at
// low power operating point has the advantage of reducing the overall
// system Thermal Design Power (TDP) — easing the thermal design and
// dark-silicon effects", and Sec. V-C: at near-threshold operation "the
// server is still energy-bound instead of power/thermal bound").
//
// The model is a steady-state junction-to-ambient thermal resistance with
// an exponential transient, plus a dark-silicon calculator: at a given
// operating point, how many of the chip's cores can be simultaneously
// active without exceeding the thermal or power budget.
package thermal

import (
	"math"
	"time"

	"ntcsim/internal/power"
)

// Model is a lumped junction-to-ambient thermal model.
type Model struct {
	AmbientC float64 // inlet/ambient temperature
	RthJAC   float64 // junction-to-ambient resistance, degC per W
	TjMaxC   float64 // junction temperature limit
	TDPW     float64 // electrical design power budget
	// TimeConstant of the package+heatsink thermal mass.
	TimeConstant time.Duration
}

// Default returns a server-class air-cooled model: 30C inlet, 0.45 C/W
// heatsink, 90C junction limit, and the paper's 100W chip budget.
func Default() Model {
	return Model{
		AmbientC:     30,
		RthJAC:       0.45,
		TjMaxC:       90,
		TDPW:         100,
		TimeConstant: 8 * time.Second,
	}
}

// JunctionTemp returns the steady-state junction temperature at chip power
// p (watts).
func (m Model) JunctionTemp(p float64) float64 {
	return m.AmbientC + m.RthJAC*p
}

// ThermalLimitW returns the chip power at which the junction hits TjMax.
func (m Model) ThermalLimitW() float64 {
	return (m.TjMaxC - m.AmbientC) / m.RthJAC
}

// BudgetW returns the binding chip power budget: the smaller of the
// electrical TDP and the thermal limit.
func (m Model) BudgetW() float64 {
	return math.Min(m.TDPW, m.ThermalLimitW())
}

// Transient returns the junction temperature at time t after a step from
// power p0 to power p1 (first-order exponential).
func (m Model) Transient(p0, p1 float64, t time.Duration) float64 {
	t0 := m.JunctionTemp(p0)
	t1 := m.JunctionTemp(p1)
	if m.TimeConstant <= 0 {
		return t1
	}
	alpha := math.Exp(-float64(t) / float64(m.TimeConstant))
	return t1 + (t0-t1)*alpha
}

// TimeToLimit returns how long a power step from p0 to p1 can be sustained
// before the junction reaches TjMax, and whether the limit is ever reached
// (false means p1 is sustainable indefinitely).
func (m Model) TimeToLimit(p0, p1 float64) (time.Duration, bool) {
	if m.JunctionTemp(p1) <= m.TjMaxC {
		return 0, false
	}
	t0 := m.JunctionTemp(p0)
	t1 := m.JunctionTemp(p1)
	if t0 >= m.TjMaxC {
		return 0, true
	}
	// Solve TjMax = t1 + (t0-t1)*exp(-t/tau).
	frac := (m.TjMaxC - t1) / (t0 - t1)
	return time.Duration(-math.Log(frac) * float64(m.TimeConstant)), true
}

// DarkSiliconPoint reports core-activation limits at one operating point.
type DarkSiliconPoint struct {
	FreqHz       float64
	Vdd          float64
	PerCoreW     float64
	BudgetW      float64 // budget available to the cores (after uncore)
	ActiveCores  int     // cores that fit the budget
	TotalCores   int
	DarkFraction float64 // fraction of cores that must stay dark
	ThermalBound bool    // the thermal limit binds (vs the electrical TDP)
}

// DarkSilicon computes, for each frequency, how many cores can run
// concurrently at full activity within the budget, after reserving
// uncoreW for the always-on uncore. Dark cores are assumed power-gated or
// in RBB sleep (their residual leakage is charged at the sleep level).
func DarkSilicon(m Model, cm *power.CoreModel, uncoreW float64, totalCores int, freqsHz []float64) ([]DarkSiliconPoint, error) {
	pts := make([]DarkSiliconPoint, 0, len(freqsHz))
	for _, f := range freqsHz {
		op, err := cm.Tech.OperatingPointFor(f, 0)
		if err != nil {
			return nil, err
		}
		perCore := cm.Power(op, 1.0)
		sleep := cm.SleepPower(op.Vdd)
		budget := m.BudgetW() - uncoreW
		// n active cores + (total-n) sleeping cores must fit the budget.
		// n*perCore + (total-n)*sleep <= budget
		n := 0
		if perCore > sleep {
			n = int((budget - float64(totalCores)*sleep) / (perCore - sleep))
		}
		if n > totalCores {
			n = totalCores
		}
		if n < 0 {
			n = 0
		}
		pts = append(pts, DarkSiliconPoint{
			FreqHz:       f,
			Vdd:          op.Vdd,
			PerCoreW:     perCore,
			BudgetW:      budget,
			ActiveCores:  n,
			TotalCores:   totalCores,
			DarkFraction: 1 - float64(n)/float64(totalCores),
			ThermalBound: m.ThermalLimitW() < m.TDPW,
		})
	}
	return pts, nil
}
