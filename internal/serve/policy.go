package serve

import (
	"fmt"
	"time"

	"ntcsim/internal/governor"
)

// Observation is what a serving policy sees at an epoch boundary: the
// offered load for the upcoming epoch (what a datacenter load predictor
// would supply) plus the fleet's MEASURED state — the feedback path an
// open-loop plan lacks. Cross-epoch policy memory rides in
// the observation (PrevFreqHz) instead of policy fields, which keeps
// policies stateless and a mid-run checkpoint trivially complete.
type Observation struct {
	// Epoch is the index of the epoch being decided (0 at simulation start).
	Epoch int
	// Offered is the trace's planned arrival rate for this epoch, req/s.
	Offered float64
	// MeasuredRate is the served throughput over the previous epoch, req/s
	// (0 at simulation start).
	MeasuredRate float64
	// Queued is the fleet-wide backlog (waiting, not in service) at the
	// boundary.
	Queued int
	// Tail99 is the p99 latency over all post-warmup completions so far
	// (0 until the sketch has data).
	Tail99 time.Duration
	// PrevFreqHz is the operating frequency of the previous epoch (0 at
	// simulation start).
	PrevFreqHz float64
}

// Policy maps an epoch-boundary observation to the fleet's operating
// decision for the next epoch. Implementations must be stateless and
// deterministic: everything they react to arrives in the Observation.
type Policy interface {
	Name() string
	Decide(cfg *governor.Config, o Observation) governor.Decision
}

// Static pins one decision for the whole run — the open-loop baselines:
// max-frequency (Sleep false) and race-to-idle (fmax with Sleep true).
type Static struct {
	// Label overrides the derived name when non-empty.
	Label  string
	FreqHz float64
	Sleep  bool
}

// Name implements Policy.
func (p Static) Name() string {
	if p.Label != "" {
		return p.Label
	}
	return fmt.Sprintf("static-%.1fGHz", p.FreqHz/1e9)
}

// Decide implements Policy.
func (p Static) Decide(cfg *governor.Config, o Observation) governor.Decision {
	return governor.Decision{FreqHz: p.FreqHz, Sleep: p.Sleep}
}

// Tracking plans the cheapest QoS-feasible frequency for the offered load
// each epoch (governor.Config.MinFeasibleFreq) and absorbs large upward
// steps with an FBB boost, which reacts faster than a supply-rail DVFS
// transition.
type Tracking struct{}

// Name implements Policy.
func (Tracking) Name() string { return "tracking" }

// Decide implements Policy.
func (Tracking) Decide(cfg *governor.Config, o Observation) governor.Decision {
	f := cfg.MinFeasibleFreq(o.Offered)
	d := governor.Decision{FreqHz: f, Sleep: true}
	if o.PrevFreqHz > 0 && f > o.PrevFreqHz*1.5 {
		d.Boost = true
	}
	return d
}

// QueueAware starts from the tracking plan and escalates one frequency
// notch, under boost, when the measured backlog exceeds queuePerCore
// waiting requests per core — the feedback term that catches what the
// offered-load plan misses (service-time mismatch, balancer skew, a spike
// the predictor underestimated).
type QueueAware struct{}

// queuePerCore is QueueAware's backlog-per-core escalation threshold.
const queuePerCore = 1

// Name implements Policy.
func (QueueAware) Name() string { return "queue-aware" }

// Decide implements Policy.
func (QueueAware) Decide(cfg *governor.Config, o Observation) governor.Decision {
	f := cfg.MinFeasibleFreq(o.Offered)
	d := governor.Decision{FreqHz: f, Sleep: true}
	if o.Queued > queuePerCore*cfg.Tail.Cores {
		d.FreqHz = cfg.Curve.StepUp(f)
		d.Boost = true
	}
	if o.PrevFreqHz > 0 && d.FreqHz > o.PrevFreqHz*1.5 {
		d.Boost = true
	}
	return d
}
