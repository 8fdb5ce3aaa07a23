package core

import (
	"context"
	"fmt"
	"slices"

	"ntcsim/internal/parallel"
	"ntcsim/internal/qos"
	"ntcsim/internal/sampling"
	"ntcsim/internal/workload"
)

// InterferenceReport quantifies the co-scheduling interference that makes
// the paper rule out workload co-location for latency-critical services
// (Sec. III-B1: "co-scheduling workloads on the same server is often not
// possible as these applications utilize most of the memory and any
// interference can lead to unacceptable degradations in QoS").
type InterferenceReport struct {
	Victim    string
	Aggressor string
	FreqHz    float64

	// SoloUIPC is the victim's per-core user IPC running alone (all four
	// cluster cores run the victim).
	SoloUIPC float64
	// MixedUIPC is the victim's per-core user IPC when half the cluster
	// runs the aggressor.
	MixedUIPC float64
	// Slowdown = SoloUIPC / MixedUIPC (>1 means interference hurts).
	Slowdown float64
	// NormalizedSolo / NormalizedMixed are the victim's 99th-percentile
	// latencies normalized to its QoS limit (Fig. 2 metric), without and
	// with the co-runner, both relative to the 2GHz solo baseline.
	NormalizedSolo  float64
	NormalizedMixed float64
	// QoSViolated reports that the victim was QoS-feasible alone at this
	// frequency but is pushed over the limit by interference — the paper's
	// argument against co-scheduling.
	QoSViolated bool
}

// Interference co-schedules aggressor on half of the victim's cluster and
// measures the victim's slowdown and QoS impact at each of freqs, one
// report per frequency in freqs' order. Every cluster is a walk, sampled
// like a sweep's points, and one runWalks measures them all: the solo
// cluster, warmed at 2GHz, measures the 2GHz baseline and every frequency
// from the same sample units, and one mixed cluster per frequency, warmed
// at it, measures it. Each report equals that of a one-frequency call.
func (e *Explorer) Interference(ctx context.Context, victim, aggressor *workload.Profile, freqs []float64) ([]InterferenceReport, error) {
	if victim.Class != workload.ScaleOut {
		return nil, fmt.Errorf("core: interference analysis targets scale-out victims, got %s", victim.Name)
	}
	if len(freqs) == 0 {
		return nil, fmt.Errorf("core: empty frequency list")
	}
	cfg := e.SamplingFor(victim)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}

	soloProfiles := e.soloProfiles(victim)
	soloFreqs := append([]float64{qos.BaselineFreqHz}, freqs...)
	slices.Sort(soloFreqs)
	soloFreqs = slices.Compact(soloFreqs)
	solo := newWalk(victim.Name, cfg, soloFreqs)
	// Mixed: the first half of the cores victim, the rest aggressor.
	mixedProfiles := e.soloProfiles(victim)
	for i := len(mixedProfiles) / 2; i < len(mixedProfiles); i++ {
		mixedProfiles[i] = aggressor
	}
	walks := []*walk{&solo}
	for _, f := range freqs {
		mixed := newWalk(victim.Name+"+"+aggressor.Name, cfg, []float64{f})
		walks = append(walks, &mixed)
	}
	err := parallel.ForEach(ctx, len(walks), e.Jobs, func(_ context.Context, k int) error {
		if k == 0 {
			return e.prelude(&solo, soloProfiles, qos.BaselineFreqHz)
		}
		return e.prelude(walks[k], mixedProfiles, walks[k].freqs[0])
	})
	if err == nil {
		err = e.runWalks(ctx, walks)
	}
	if err != nil {
		return nil, err
	}

	soloUIPC := func(f float64) float64 {
		return victimUIPC(solo.res[slices.Index(soloFreqs, f)], victim, soloProfiles)
	}
	// QoS: the paper's latency scaling against the 2GHz solo baseline.
	baseUIPS := soloUIPC(qos.BaselineFreqHz) * qos.BaselineFreqHz
	reps := make([]InterferenceReport, len(freqs))
	for i, f := range freqs {
		rep := InterferenceReport{
			Victim:    victim.Name,
			Aggressor: aggressor.Name,
			FreqHz:    f,
			SoloUIPC:  soloUIPC(f),
			MixedUIPC: victimUIPC(walks[i+1].res[0], victim, mixedProfiles),
		}
		if rep.MixedUIPC > 0 {
			rep.Slowdown = rep.SoloUIPC / rep.MixedUIPC
		}
		rep.NormalizedSolo = qos.Normalized(victim, baseUIPS, rep.SoloUIPC*f)
		rep.NormalizedMixed = qos.Normalized(victim, baseUIPS, rep.MixedUIPC*f)
		rep.QoSViolated = rep.NormalizedSolo <= 1 && rep.NormalizedMixed > 1
		reps[i] = rep
	}
	return reps, nil
}

// victimUIPC averages per-core UIPC over the cores running the victim.
func victimUIPC(res sampling.Result, victim *workload.Profile, assignment []*workload.Profile) float64 {
	var sum float64
	var n int
	for _, m := range res.Samples {
		for i, cs := range m.PerCore {
			if i < len(assignment) && assignment[i] == victim && cs.Cycles > 0 {
				sum += cs.UIPC()
				n++
			}
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
