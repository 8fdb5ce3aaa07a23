// Package tech models the process-technology layer of the paper: the
// voltage/frequency/leakage behavior of 28nm bulk CMOS and 28nm UTBB FD-SOI
// (with forward and reverse body biasing), extended into the near-threshold
// region (paper Sec. II-A and II-C1, Fig. 1).
//
// The frequency model is the alpha-power law
//
//	f(Vdd, Vbb) = K * (Vdd - Vth(Vbb))^alpha / Vdd
//
// with technology parameters (K, Vth0, alpha) fitted to the anchor points
// the paper reports: an FD-SOI Cortex-A57 reaches ~100MHz at 0.5V where bulk
// is non-functional, forward body bias pushes 0.5V operation beyond 500MHz,
// and nominal-voltage operation lands at ~2.5-3GHz. Body bias shifts the
// effective threshold voltage by 85mV per volt of bias (paper Sec. II-A).
//
// The leakage model is standard subthreshold conduction with DIBL:
//
//	Ileak ∝ exp((eta*Vdd - Vth(Vbb)) / (n*vT))
//
// exposed as a dimensionless LeakageFactor normalized to 1 at the nominal
// operating point, so that the power package can attach calibrated
// per-component leakage wattages.
package tech

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// ErrUnreachable is returned by VoltageFor when the requested frequency
// exceeds what the technology can deliver at its maximum voltage.
var ErrUnreachable = errors.New("tech: frequency unreachable at VddMax")

// Technology describes one process flavor (bulk or FD-SOI) with its fitted
// alpha-power frequency law and leakage parameters.
type Technology struct {
	Name string

	// Alpha-power frequency law parameters: f = K*(Vdd-VthEff)^Alpha/Vdd.
	K     float64 // gain, Hz * V^(1-Alpha)
	Vth0  float64 // zero-bias threshold voltage, V
	Alpha float64 // velocity-saturation exponent

	// Voltage limits.
	VddMax   float64 // maximum supply voltage, V
	SRAMVmin float64 // minimum functional voltage (L1 SRAM limit), V

	// Body bias capability. Bulk has essentially no useful range; flip-well
	// (LVT) UTBB FD-SOI supports 0..+3V FBB, conventional-well supports RBB
	// down to -3V (paper Sec. II-A).
	BodyBiasMin     float64 // most negative (reverse) bias, V
	BodyBiasMax     float64 // most positive (forward) bias, V
	VthShiftPerVolt float64 // |dVth/dVbb|, V/V (0.085 for UTBB FD-SOI)

	// Leakage parameters.
	SubthresholdN float64 // subthreshold slope factor n (dimensionless)
	DIBL          float64 // drain-induced barrier lowering coefficient eta
	TempK         float64 // junction temperature, K

	// LeakageFactor is normalized to 1 at (VddNominal, Vbb=0).
	VddNominal float64

	// BiasTransitionTime is the time to swing the back-bias rail across its
	// range (the paper cites <1us for 0V->1.3V on a 5mm^2 A9; body biasing
	// is much faster than supply-rail DVFS and is state-retentive).
	BiasTransitionTime time.Duration
}

// thermalVoltage returns n*vT in volts at the configured temperature.
func (t *Technology) thermalVoltage() float64 {
	const kOverQ = 8.617333262e-5 // V/K
	return t.SubthresholdN * kOverQ * t.TempK
}

// VthEff returns the effective threshold voltage under body bias vbb
// (positive = forward bias = lower threshold). vbb is clamped to the
// technology's supported range.
func (t *Technology) VthEff(vbb float64) float64 {
	vbb = t.ClampBias(vbb)
	return t.Vth0 - t.VthShiftPerVolt*vbb
}

// ClampBias restricts vbb to the technology's body-bias range.
func (t *Technology) ClampBias(vbb float64) float64 {
	return math.Min(math.Max(vbb, t.BodyBiasMin), t.BodyBiasMax)
}

// BoostBias returns the forward body bias of boost mode: the 1.3V swing
// the paper cites for the STM A9 test chip ("the back-bias voltage of a
// 5mm^2 Cortex A9 processor can switch between 0V and 1.3V in less than
// 1us"), clamped to the technology's range. Full-range FBB is reserved
// for the per-point energy optimization.
func (t *Technology) BoostBias() float64 { return t.ClampBias(1.3) }

// MaxFrequency returns the maximum operating frequency in Hz at supply vdd
// and body bias vbb. It returns 0 if the device is non-functional at that
// point (vdd at or below threshold, or below the SRAM minimum).
func (t *Technology) MaxFrequency(vdd, vbb float64) float64 {
	if !t.Functional(vdd) {
		return 0
	}
	vth := t.VthEff(vbb)
	if vdd <= vth {
		return 0
	}
	return t.K * math.Pow(vdd-vth, t.Alpha) / vdd
}

// Functional reports whether the supply voltage satisfies the functional
// limits (the 0.5V L1 SRAM floor and the technology VddMax).
func (t *Technology) Functional(vdd float64) bool {
	return vdd >= t.SRAMVmin && vdd <= t.VddMax
}

// VoltageFor returns the minimum supply voltage that sustains frequency hz
// at body bias vbb. Frequencies below what the SRAM-minimum voltage
// delivers return SRAMVmin (the supply cannot be lowered further; the part
// simply runs slower than its capability — this is the region where leakage
// erodes efficiency, paper Sec. V-B1). It returns ErrUnreachable when hz
// exceeds the capability at VddMax.
func (t *Technology) VoltageFor(hz, vbb float64) (float64, error) {
	if hz <= 0 {
		return t.SRAMVmin, nil
	}
	if hz > t.MaxFrequency(t.VddMax, vbb) {
		return 0, fmt.Errorf("%w: %.0f MHz > %.0f MHz at %.2fV (%s)",
			ErrUnreachable, hz/1e6, t.MaxFrequency(t.VddMax, vbb)/1e6, t.VddMax, t.Name)
	}
	if hz <= t.MaxFrequency(t.SRAMVmin, vbb) {
		return t.SRAMVmin, nil
	}
	// MaxFrequency is strictly increasing in vdd over [SRAMVmin, VddMax]
	// for vdd > vth, so bisection converges.
	lo, hi := t.SRAMVmin, t.VddMax
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		if t.MaxFrequency(mid, vbb) < hz {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi, nil
}

// LeakageFactor returns the leakage power multiplier at (vdd, vbb) relative
// to the nominal point (VddNominal, vbb=0). It includes the Vdd factor of
// leakage *power* (P = Vdd * Ileak) as well as the exponential dependence of
// leakage current on threshold and DIBL.
func (t *Technology) LeakageFactor(vdd, vbb float64) float64 {
	return t.LeakageFactorAt(vdd, vbb, t.TempK)
}

// LeakageFactorAt is LeakageFactor evaluated at junction temperature tempK
// (the reference point stays at the technology's calibration temperature).
// Subthreshold leakage grows steeply with temperature — the coupling that
// produces thermal runaway at high voltage and is almost absent in the
// near-threshold region.
func (t *Technology) LeakageFactorAt(vdd, vbb, tempK float64) float64 {
	const kOverQ = 8.617333262e-5 // V/K
	nvtAt := t.SubthresholdN * kOverQ * tempK
	nvtRef := t.thermalVoltage()
	// Vth drops ~0.8mV/K with temperature, compounding the vT growth.
	vthAt := t.VthEff(vbb) - 0.0008*(tempK-t.TempK)
	cur := vdd * math.Exp((t.DIBL*vdd-vthAt)/nvtAt)
	ref := t.VddNominal * math.Exp((t.DIBL*t.VddNominal-t.Vth0)/nvtRef)
	return cur / ref
}

// SleepLeakageFactor returns the leakage multiplier in the state-retentive
// reverse-body-bias sleep mode at supply vdd (paper Sec. II-A item 3:
// "reducing leakage power by up to an order of magnitude"). It applies the
// strongest supported reverse bias, floored at -1V so the ~10x claim holds
// for flip-well parts whose RBB range is limited.
func (t *Technology) SleepLeakageFactor(vdd float64) float64 {
	rbb := math.Max(t.BodyBiasMin, -1)
	if rbb >= 0 {
		// No reverse-bias capability: sleep leakage equals active leakage.
		return t.LeakageFactor(vdd, 0)
	}
	return t.LeakageFactor(vdd, rbb)
}

// OperatingPoint is a resolved (voltage, bias, frequency) triple.
type OperatingPoint struct {
	Vdd    float64 // supply voltage, V
	Vbb    float64 // body bias, V (positive = forward)
	FreqHz float64 // operating frequency, Hz
	// VoltageLimited reports that the supply sits at the SRAM floor, i.e.
	// frequency is below the voltage-scaling region and leakage no longer
	// shrinks with frequency.
	VoltageLimited bool
}

// OperatingPointFor resolves the minimum-voltage operating point for a
// target frequency at body bias vbb.
func (t *Technology) OperatingPointFor(hz, vbb float64) (OperatingPoint, error) {
	vdd, err := t.VoltageFor(hz, vbb)
	if err != nil {
		return OperatingPoint{}, err
	}
	return OperatingPoint{
		Vdd:            vdd,
		Vbb:            t.ClampBias(vbb),
		FreqHz:         hz,
		VoltageLimited: hz < t.MaxFrequency(t.SRAMVmin, vbb),
	}, nil
}

// fitAlphaPower solves for (K, Vth) of f = K*(V-Vth)^alpha/V from two
// measured anchor points (v1, f1) and (v2, f2) with v1 < v2.
func fitAlphaPower(v1, f1, v2, f2, alpha float64) (k, vth float64) {
	// (v2-Vth)/(v1-Vth) = (f2*v2 / (f1*v1))^(1/alpha) =: r
	r := math.Pow(f2*v2/(f1*v1), 1/alpha)
	vth = (r*v1 - v2) / (r - 1)
	k = f1 * v1 / math.Pow(v1-vth, alpha)
	return k, vth
}

// A57 frequency anchors for the fitted models, from the paper's narrative:
// "While pure bulk A57 has timing issues when operating in the low voltage
// region (0.5V), the FD-SOI implementation reaches almost 100MHz, which
// increases to more than 500MHz with forward body-bias", combined with the
// ~3GHz nominal capability of the 28nm FD-SOI A9 test chips scaled by the
// A57/A9 frequency ratio of 1.17 derived from Exynos DVFS tables.
const (
	fdsoiLowV, fdsoiLowF = 0.50, 100e6
	fdsoiHiV, fdsoiHiF   = 1.30, 3.0e9
	bulkLowV, bulkLowF   = 0.60, 100e6
	bulkHiV, bulkHiF     = 1.30, 2.5e9
	alphaPower           = 1.5
)

// FDSOI28 returns the 28nm UTBB FD-SOI LVT (flip-well) technology model
// used by the paper's server platform. Flip-well parts feature forward body
// bias in the 0..+3V range (paper Sec. II-A); a modest reverse capability
// of -1V is retained for the state-retentive sleep mode.
func FDSOI28() *Technology {
	k, vth := fitAlphaPower(fdsoiLowV, fdsoiLowF, fdsoiHiV, fdsoiHiF, alphaPower)
	return &Technology{
		Name:               "28nm UTBB FD-SOI (LVT)",
		K:                  k,
		Vth0:               vth,
		Alpha:              alphaPower,
		VddMax:             1.40,
		SRAMVmin:           0.50,
		BodyBiasMin:        -1.0,
		BodyBiasMax:        3.0,
		VthShiftPerVolt:    0.085,
		SubthresholdN:      1.4,
		DIBL:               0.15,
		TempK:              330,
		VddNominal:         1.10,
		BiasTransitionTime: time.Microsecond,
	}
}

// Bulk28 returns the 28nm bulk CMOS reference technology. Bulk body biasing
// is limited to a narrow range with a weak threshold shift, and the higher
// threshold voltage makes the part non-functional at the 0.5V SRAM floor.
func Bulk28() *Technology {
	k, vth := fitAlphaPower(bulkLowV, bulkLowF, bulkHiV, bulkHiF, alphaPower)
	return &Technology{
		Name:               "28nm bulk",
		K:                  k,
		Vth0:               vth,
		Alpha:              alphaPower,
		VddMax:             1.45,
		SRAMVmin:           0.50,
		BodyBiasMin:        -0.3,
		BodyBiasMax:        0.3,
		VthShiftPerVolt:    0.025,
		SubthresholdN:      1.4,
		DIBL:               0.15,
		TempK:              330,
		VddNominal:         1.10,
		BiasTransitionTime: 50 * time.Microsecond,
	}
}
