// Package qos implements the paper's quality-of-service methodology
// (Sec. III-B, V-A, Fig. 2).
//
// For scale-out applications the paper measures the minimum 99th-percentile
// request latency at 2GHz on real hardware in a near-zero-contention setup,
// then scales it by the simulated throughput ratio at each frequency:
// because the number of user instructions per request is constant, request
// latency is inversely proportional to UIPS. The QoS requirement is met
// when the scaled tail latency stays below the application's limit (20ms /
// 200ms / 200ms / 100ms).
//
// For virtualized batch applications there is no tail-latency bound;
// instead the paper bounds the *degradation* of execution time relative to
// the 2GHz baseline, with 2x (best observed in production) and 4x (worst
// acceptable) limits from the paper's industrial partners.
package qos

import (
	"fmt"
	"time"

	"ntcsim/internal/workload"
)

// Degradation limits for virtualized workloads (paper Sec. III-B2).
const (
	// DegradationStrict is the minimum degradation observed in production
	// data centers (2x).
	DegradationStrict = 2.0
	// DegradationRelaxed is the maximum acceptable degradation (4x).
	DegradationRelaxed = 4.0
)

// BaselineFreqHz is the frequency at which the baseline latencies and
// execution times were measured (paper Sec. V-A: 2GHz).
const BaselineFreqHz = 2e9

// ScaledLatency returns the 99th-percentile latency at an operating point
// delivering uips, given the baseline latency measured at uipsBaseline
// ("we scale the calculated latencies accordingly... the number of user
// instructions executed per request remains constant").
func ScaledLatency(baseline time.Duration, uipsBaseline, uips float64) time.Duration {
	if uips <= 0 || uipsBaseline <= 0 {
		return time.Duration(1<<63 - 1) // effectively infinite
	}
	return time.Duration(float64(baseline) * uipsBaseline / uips)
}

// Normalized returns the scaled tail latency divided by the workload's QoS
// limit — the y-axis of Fig. 2. Values above 1 violate QoS. It panics if
// the profile has no QoS limit (virtualized workloads).
func Normalized(p *workload.Profile, uipsBaseline, uips float64) float64 {
	if p.QoSLimit <= 0 {
		panic(fmt.Sprintf("qos: workload %q has no tail-latency QoS (use Degradation)", p.Name))
	}
	lat := ScaledLatency(p.Baseline99p, uipsBaseline, uips)
	return float64(lat) / float64(p.QoSLimit)
}

// Meets reports whether the scale-out workload meets its tail-latency QoS
// at the given throughput.
func Meets(p *workload.Profile, uipsBaseline, uips float64) bool {
	return Normalized(p, uipsBaseline, uips) <= 1.0
}

// Degradation returns the execution-time degradation of a batch workload
// relative to the baseline throughput (1.0 = no slowdown).
func Degradation(uipsBaseline, uips float64) float64 {
	if uips <= 0 {
		return float64(1 << 62)
	}
	return uipsBaseline / uips
}

// MeetsDegradation reports whether a virtualized workload stays within the
// given degradation limit.
func MeetsDegradation(uipsBaseline, uips, limit float64) bool {
	return Degradation(uipsBaseline, uips) <= limit
}

// Requirement unifies the two QoS regimes so the design-space explorer can
// treat all workloads uniformly: the profile's tail-latency limit for
// scale-out workloads, the relaxed 4x degradation for virtualized ones.
// Reports that also need the strict 2x bound compute it from Degradation.
type Requirement struct {
	Profile *workload.Profile
}

// NewRequirement returns the requirement for a profile.
func NewRequirement(p *workload.Profile) Requirement {
	return Requirement{Profile: p}
}

// Satisfied reports whether the requirement holds at throughput uips given
// the 2GHz-baseline throughput.
func (r Requirement) Satisfied(uipsBaseline, uips float64) bool {
	if r.Profile.Class == workload.Virtualized {
		return MeetsDegradation(uipsBaseline, uips, DegradationRelaxed)
	}
	return Meets(r.Profile, uipsBaseline, uips)
}

// Metric returns the scalar the requirement constrains — normalized
// latency for scale-out workloads (limit 1.0), degradation for virtualized
// ones (limit DegradationRelaxed).
func (r Requirement) Metric(uipsBaseline, uips float64) float64 {
	if r.Profile.Class == workload.Virtualized {
		return Degradation(uipsBaseline, uips)
	}
	return Normalized(r.Profile, uipsBaseline, uips)
}
