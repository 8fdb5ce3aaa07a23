// Package governor holds the shared models behind operating-point
// management of a near-threshold server under time-varying load — the
// research direction the paper's discussion opens (Sec. V-C: FD-SOI
// "provides effective knobs to improve energy proportionality using BB to
// reduce leakage, or alternatively to provide local boost in a very
// fine-grained and reactive fashion").
//
// It works at the analytical layer: a performance curve UIPS(f) measured
// by the full-system simulator (core.Sweep), the platform power models
// and the queueing tail-latency model, wired together in a Config. The
// Config answers the planning question (MinFeasibleFreq: the cheapest
// QoS-feasible frequency for a load) and the accounting questions
// (CorePower and SharedPower, and their ledger decompositions) for an
// operating Decision: a frequency, RBB sleep of idle capacity, and an FBB
// boost. The load shapes a policy is judged on — a diurnal day with
// spikes, a single burst — are LoadTraces. The policies themselves, and
// the evaluation of what they cost over a trace, live in the closed-loop
// serving simulator (internal/serve), which serves each trace request by
// request and measures energy and tail latency instead of predicting them.
package governor

import (
	"fmt"
	"math"
	"sort"
	"time"

	"ntcsim/internal/platform"
	"ntcsim/internal/qos"
	"ntcsim/internal/rng"
)

// PerfPoint is one measured operating point.
type PerfPoint struct {
	FreqHz float64
	UIPS   float64 // chip throughput at this frequency
}

// PerfCurve is the measured UIPS(f) relation, ascending in frequency.
type PerfCurve struct {
	Points []PerfPoint
}

// NewPerfCurve sorts and validates the points.
func NewPerfCurve(points []PerfPoint) (PerfCurve, error) {
	if len(points) < 2 {
		return PerfCurve{}, fmt.Errorf("governor: need at least two performance points")
	}
	ps := append([]PerfPoint(nil), points...)
	sort.Slice(ps, func(i, j int) bool { return ps[i].FreqHz < ps[j].FreqHz })
	for i, p := range ps {
		if p.FreqHz <= 0 || p.UIPS <= 0 {
			return PerfCurve{}, fmt.Errorf("governor: non-positive point %d", i)
		}
	}
	return PerfCurve{Points: ps}, nil
}

// UIPSAt linearly interpolates throughput at frequency f (clamped to the
// curve's range).
func (c PerfCurve) UIPSAt(f float64) float64 {
	ps := c.Points
	if f <= ps[0].FreqHz {
		return ps[0].UIPS
	}
	if f >= ps[len(ps)-1].FreqHz {
		return ps[len(ps)-1].UIPS
	}
	i := sort.Search(len(ps), func(i int) bool { return ps[i].FreqHz >= f }) - 1
	a, b := ps[i], ps[i+1]
	t := (f - a.FreqHz) / (b.FreqHz - a.FreqHz)
	return a.UIPS + t*(b.UIPS-a.UIPS)
}

// MaxFreq returns the top of the curve.
func (c PerfCurve) MaxFreq() float64 { return c.Points[len(c.Points)-1].FreqHz }

// MinFreq returns the bottom of the curve.
func (c PerfCurve) MinFreq() float64 { return c.Points[0].FreqHz }

// StepUp returns the lowest curve frequency strictly above f, or MaxFreq
// when f is already at (or beyond) the top — the one-notch escalation used
// by queue-aware serving policies when the measured backlog says the
// planned operating point is falling behind.
func (c PerfCurve) StepUp(f float64) float64 {
	for _, p := range c.Points {
		if p.FreqHz > f {
			return p.FreqHz
		}
	}
	return c.MaxFreq()
}

// LoadTrace is a request-rate time series.
type LoadTrace struct {
	Step   time.Duration
	Lambda []float64 // requests/s per step
}

// WithStep returns a copy of the trace replayed at a different step
// duration — e.g. a diurnal day compressed so a discrete-event serving run
// covers the whole shape in seconds of simulated time.
func (t LoadTrace) WithStep(step time.Duration) LoadTrace {
	return LoadTrace{Step: step, Lambda: t.Lambda}
}

// Duration returns the trace's total simulated horizon.
func (t LoadTrace) Duration() time.Duration {
	return t.Step * time.Duration(len(t.Lambda))
}

// sanitizeRate clamps a caller-supplied rate-like parameter to a finite,
// non-negative value. DiurnalTrace is fuzzed: arbitrary inputs must never
// produce a panic or a negative/NaN/Inf load level.
func sanitizeRate(v float64) float64 {
	if math.IsNaN(v) || v < 0 {
		return 0
	}
	if math.IsInf(v, 1) {
		return math.MaxFloat64 / 1e6
	}
	return v
}

// clamp01 clamps a probability/fraction parameter to [0, 1] (NaN maps to 0).
func clamp01(v float64) float64 {
	if math.IsNaN(v) || v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// DiurnalTrace generates a day-long load trace with the classic diurnal
// swing plus random short spikes — the load shape that motivates both the
// paper's QoS analysis and its boost knob. Parameters are sanitized rather
// than rejected: non-finite or negative rates are treated as zero,
// troughFrac and spikeProb are clamped to [0, 1], and spike magnitudes
// below 1 are treated as 1 (no spike), so the returned trace always holds
// finite levels in [0, peakLambda*spikeMag]. steps <= 0 yields an empty
// trace.
func DiurnalTrace(steps int, peakLambda, troughFrac, spikeProb, spikeMag float64, seed *rng.Stream) LoadTrace {
	if steps <= 0 {
		return LoadTrace{}
	}
	peakLambda = sanitizeRate(peakLambda)
	troughFrac = clamp01(troughFrac)
	spikeProb = clamp01(spikeProb)
	if math.IsNaN(spikeMag) || spikeMag < 1 {
		spikeMag = 1
	}
	if math.IsInf(spikeMag, 1) || spikeMag > 1e9 {
		spikeMag = 1e9
	}
	// The product of two individually-clamped factors can still overflow
	// to +Inf; sanitize the bound itself so every emitted level is finite.
	cap := sanitizeRate(peakLambda * spikeMag)
	s := seed.Derive("load-trace")
	tr := LoadTrace{Step: 24 * time.Hour / time.Duration(steps)}
	for i := 0; i < steps; i++ {
		phase := 2 * math.Pi * float64(i) / float64(steps)
		// Diurnal: trough at night, peak in the evening.
		base := troughFrac + (1-troughFrac)*(0.5-0.5*math.Cos(phase))
		lam := peakLambda * base * (1 + 0.05*s.NormFloat64())
		if s.Bool(spikeProb) {
			lam *= spikeMag
		}
		if lam < 0 || math.IsNaN(lam) {
			lam = 0
		}
		if lam > cap {
			lam = cap
		}
		tr.Lambda = append(tr.Lambda, lam)
	}
	return tr
}

// SpikeTrace generates a flat trace at baseLambda with one contiguous
// spike of spikeMag x base covering steps [spikeAt, spikeAt+spikeLen) —
// the minimal load shape for studying how a policy absorbs a computation
// burst. Inputs are sanitized like DiurnalTrace's.
func SpikeTrace(steps int, step time.Duration, baseLambda, spikeMag float64, spikeAt, spikeLen int) LoadTrace {
	if steps <= 0 || step <= 0 {
		return LoadTrace{}
	}
	baseLambda = sanitizeRate(baseLambda)
	if math.IsNaN(spikeMag) || spikeMag < 1 {
		spikeMag = 1
	}
	tr := LoadTrace{Step: step, Lambda: make([]float64, steps)}
	for i := range tr.Lambda {
		tr.Lambda[i] = baseLambda
		if i >= spikeAt && i < spikeAt+spikeLen {
			tr.Lambda[i] = sanitizeRate(baseLambda * spikeMag)
		}
	}
	return tr
}

// UncoreBreakdown is the standing uncore power, split into the scopes
// the energy ledger attributes it to.
type UncoreBreakdown struct {
	LLCW  float64
	XbarW float64
	IOW   float64
}

// TotalW returns the breakdown's sum.
func (u UncoreBreakdown) TotalW() float64 { return u.LLCW + u.XbarW + u.IOW }

// Config wires the governor's models together.
type Config struct {
	Platform *platform.Spec
	Curve    PerfCurve
	Tail     qos.TailModel
	QoSLimit time.Duration
	// Uncore and MemBackgroundW are the standing non-core powers.
	Uncore         UncoreBreakdown
	MemBackgroundW float64
	// MemDynPerReq is the memory dynamic energy per request (J).
	MemDynPerReq float64
	// Margin derates capacity during planning (e.g. 0.85 plans for 85%).
	Margin float64
}

// Decision is a policy's choice for one step.
type Decision struct {
	FreqHz float64
	Sleep  bool // RBB-sleep idle capacity within the step
	Boost  bool // spike absorbed by FBB boost
}

// MinFeasibleFreq returns the lowest curve frequency whose QoS-constrained
// capacity (derated by Margin) covers arrival rate lambda, or the maximum
// frequency when none does — the planning primitive of the load-tracking
// serving policies in internal/serve.
func (cfg *Config) MinFeasibleFreq(lambda float64) float64 {
	for _, pt := range cfg.Curve.Points {
		if cfg.Tail.MaxLoad(cfg.QoSLimit, pt.UIPS)*cfg.Margin >= lambda {
			return pt.FreqHz
		}
	}
	return cfg.Curve.MaxFreq()
}

// boostDuty is the fraction of a boosted step spent at the technology's
// boost bias (paper Sec. II-A item 1: FBB gives a sub-microsecond local
// boost while a supply-rail DVFS transition would take far longer). A
// boosted step charges the extra FBB leakage for that fraction as a
// planning figure.
const boostDuty = 0.1

// CorePower returns the power of a block of n cores governed by decision d
// with the given busy fraction in [0, 1]: busy cores run at the operating
// point's active power, idle capacity either leaks or RBB-sleeps, and a
// boosted step additionally charges the FBB leakage premium for boostDuty
// of the interval. The discrete-event serving simulator calls it per
// cluster with a measured busy fraction.
func (cfg *Config) CorePower(d Decision, n int, busy float64) (float64, error) {
	op, err := cfg.Platform.Tech.OperatingPointFor(d.FreqHz, 0)
	if err != nil {
		return 0, err
	}
	nf := float64(n)
	active := cfg.Platform.Core.Power(op, 1.0)
	idle := cfg.Platform.Core.IdlePower(op, d.Sleep)
	w := nf * (busy*active + (1-busy)*idle)
	if d.Boost {
		boostLeak := nf * cfg.Platform.Core.LeakagePower(op.Vdd, cfg.Platform.Tech.BoostBias())
		w += boostDuty * (boostLeak - nf*idle)
	}
	return w, nil
}

// SharedPower returns the per-chip standing power plus the request-rate-
// proportional memory dynamic power: the non-core terms every policy pays
// regardless of the operating point.
func (cfg *Config) SharedPower(lambda float64) float64 {
	return cfg.Uncore.TotalW() + cfg.MemBackgroundW + lambda*cfg.MemDynPerReq
}

// CoreParts is CorePower's answer decomposed for the energy ledger:
// switching watts, static watts (idle leakage, sleep and boost premiums
// all count as leakage), and the supply voltage of the operating point.
type CoreParts struct {
	DynW  float64
	LeakW float64
	Vdd   float64
}

// CorePowerParts computes the same quantity as CorePower but split into
// dynamic and leakage attribution scopes: DynW+LeakW re-associates
// CorePower's sum and stays within float ulps of it. Only busy cores
// switch, so the dynamic part scales with the busy fraction; everything
// else — active-core leakage, idle leakage or sleep power, and the FBB
// boost premium — is static and lands in LeakW.
func (cfg *Config) CorePowerParts(d Decision, n int, busy float64) (CoreParts, error) {
	op, err := cfg.Platform.Tech.OperatingPointFor(d.FreqHz, 0)
	if err != nil {
		return CoreParts{}, err
	}
	nf := float64(n)
	dynOne, leakOne := cfg.Platform.Core.PowerParts(op, 1.0)
	idle := cfg.Platform.Core.IdlePower(op, d.Sleep)
	p := CoreParts{
		DynW:  nf * busy * dynOne,
		LeakW: nf * (busy*leakOne + (1-busy)*idle),
		Vdd:   op.Vdd,
	}
	if d.Boost {
		boostLeak := nf * cfg.Platform.Core.LeakagePower(op.Vdd, cfg.Platform.Tech.BoostBias())
		p.LeakW += boostDuty * (boostLeak - nf*idle)
	}
	return p, nil
}

// SharedParts is SharedPower decomposed for the energy ledger.
type SharedParts struct {
	LLCW  float64
	XbarW float64
	IOW   float64
	DRAMW float64
}

// SharedPowerParts attributes SharedPower(lambda) to ledger scopes: the
// uncore breakdown, and memory background plus per-request dynamic energy
// under DRAM. The parts sum re-associates SharedPower's and stays within
// float ulps of it.
func (cfg *Config) SharedPowerParts(lambda float64) SharedParts {
	return SharedParts{
		LLCW:  cfg.Uncore.LLCW,
		XbarW: cfg.Uncore.XbarW,
		IOW:   cfg.Uncore.IOW,
		DRAMW: cfg.MemBackgroundW + lambda*cfg.MemDynPerReq,
	}
}
