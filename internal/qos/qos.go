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

// Degradation returns the execution-time degradation of a batch workload
// relative to the baseline throughput (1.0 = no slowdown).
func Degradation(uipsBaseline, uips float64) float64 {
	if uips <= 0 {
		return float64(1 << 62)
	}
	return uipsBaseline / uips
}

// Metric returns the scalar the QoS requirement of p constrains at
// throughput uips, given the 2GHz-baseline throughput: normalized tail
// latency for scale-out workloads, execution-time degradation for
// virtualized ones. The requirement holds when Metric <= Limit(p).
func Metric(p *workload.Profile, uipsBaseline, uips float64) float64 {
	if p.Class == workload.Virtualized {
		return Degradation(uipsBaseline, uips)
	}
	return Normalized(p, uipsBaseline, uips)
}

// Limit returns the bound on Metric for p: 1 (the QoS limit itself) for
// scale-out workloads, the relaxed 4x degradation for virtualized ones.
// Reports that also need the strict 2x bound compare a VM's Metric with
// DegradationStrict.
func Limit(p *workload.Profile) float64 {
	if p.Class == workload.Virtualized {
		return DegradationRelaxed
	}
	return 1
}
