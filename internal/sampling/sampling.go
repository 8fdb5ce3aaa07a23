// Package sampling holds the SMARTS statistical sampling methodology the
// paper uses to make full-system simulation tractable (Sec. IV,
// following Wunderlich et al.): systematic samples are drawn over a long
// instruction stream; between samples the simulator fast-forwards in a
// cheap functional-warming mode (caches and branch predictors stay warm),
// and each sample consists of a detailed warmup window followed by a
// detailed measurement window. Sampling stops when the performance metric
// reaches the target confidence ("Performance is measured at a 95%
// confidence level and an average error below 2%").
//
// The package is data and arithmetic: a Config, and a Result that
// accumulates measurement windows and holds the stop rule. The walk that
// produces the windows lives in internal/core, where every operating
// point of a workload measures sample k from the same live point.
package sampling

import (
	"fmt"

	"ntcsim/internal/sim"
	"ntcsim/internal/stats"
	"ntcsim/internal/workload"
)

// Config controls one sampled simulation.
type Config struct {
	// WarmupCycles of detailed simulation precede each measurement so
	// pipeline and queue state reach steady state (paper: 100K cycles, 2M
	// for Data Serving).
	WarmupCycles int64
	// MeasureCycles is the detailed measurement window (paper: 50K cycles,
	// 400K for Data Serving).
	MeasureCycles int64
	// FastForwardInstr is the functional-warming gap between consecutive
	// sample units (per core), giving systematic coverage of the 10-second
	// trace interval. Every operating point of a workload measures unit k
	// from the same live point, so the gap must be positive: without it
	// each unit would be the first one again.
	FastForwardInstr uint64
	// MinSamples / MaxSamples bound the adaptive loop.
	MinSamples, MaxSamples int
	// TargetRelErr is the stopping threshold on the relative half-width
	// of UIPC's confidence interval at level confidence (0.02).
	TargetRelErr float64
}

// confidence is the level of every confidence interval the sampler
// computes (paper Sec. IV: "95% confidence level").
const confidence = 0.95

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.WarmupCycles < 0 || c.MeasureCycles <= 0:
		return fmt.Errorf("sampling: windows must be positive")
	case c.FastForwardInstr == 0:
		return fmt.Errorf("sampling: the fast-forward gap between samples must be positive")
	case c.MinSamples < 2 || c.MaxSamples < c.MinSamples:
		return fmt.Errorf("sampling: need MaxSamples >= MinSamples >= 2")
	case c.TargetRelErr <= 0:
		return fmt.Errorf("sampling: target relative error must be positive")
	}
	return nil
}

// PaperConfig returns the paper's sampling parameters for a workload:
// 100K-cycle warmup and 50K-cycle measurement (2M/400K for Data Serving),
// 95% confidence, 2% error.
func PaperConfig(p *workload.Profile) Config {
	cfg := Config{
		WarmupCycles:     100_000,
		MeasureCycles:    50_000,
		FastForwardInstr: 300_000,
		MinSamples:       4,
		MaxSamples:       40,
		TargetRelErr:     0.02,
	}
	if p != nil && p.Name == "data-serving" {
		cfg.WarmupCycles = 2_000_000
		cfg.MeasureCycles = 400_000
		cfg.MaxSamples = 10
	}
	return cfg
}

// QuickConfig returns a reduced-cost configuration for tests, examples and
// benchmark harness defaults: same structure, smaller windows, looser
// error target.
func QuickConfig() Config {
	return Config{
		WarmupCycles:     20_000,
		MeasureCycles:    30_000,
		FastForwardInstr: 60_000,
		MinSamples:       3,
		MaxSamples:       10,
		TargetRelErr:     0.05,
	}
}

// Result is the outcome of a sampled simulation: the measurement windows
// of one operating point, in sample order.
type Result struct {
	Samples   []sim.Measurement
	UIPC      stats.Accumulator
	Converged bool // reached TargetRelErr before MaxSamples

	// Total sums every measurement window; its rate methods give the
	// aggregate DRAM bandwidth and LLC activity over all windows.
	Total sim.Measurement
}

// Add records the next measurement window and applies the stop rule:
// it reports whether sampling ends here, because the interval met
// cfg.TargetRelErr with at least MinSamples windows (Converged is then
// set) or because MaxSamples windows are in.
func (r *Result) Add(m sim.Measurement, cfg Config) (stop bool) {
	r.Samples = append(r.Samples, m)
	r.UIPC.Add(m.UIPC())
	r.Total.Add(m)
	n := len(r.Samples)
	r.Converged = n >= cfg.MinSamples && r.RelErr() <= cfg.TargetRelErr
	return r.Converged || n >= cfg.MaxSamples
}

// RelErr returns the relative half-width of UIPC's confidence interval.
func (r Result) RelErr() float64 { return r.UIPC.RelativeError(confidence) }

// MeanUIPS returns the mean user instructions per second, using the
// frequency of the sampled windows.
func (r Result) MeanUIPS() float64 { return r.UIPC.Mean() * r.Total.FreqHz }
