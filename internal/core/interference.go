package core

import (
	"context"
	"fmt"

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
// measures the victim's slowdown and QoS impact at the given frequency.
// Both clusters are walks, sampled like a sweep's points: the solo cluster,
// warmed at 2GHz, measures the 2GHz baseline and freqHz from the same
// sample units, and the mixed cluster, warmed at freqHz, measures freqHz.
func (e *Explorer) Interference(victim, aggressor *workload.Profile, freqHz float64) (InterferenceReport, error) {
	if victim.Class != workload.ScaleOut {
		return InterferenceReport{}, fmt.Errorf("core: interference analysis targets scale-out victims, got %s", victim.Name)
	}
	cfg := e.SamplingFor(victim)
	if err := cfg.Validate(); err != nil {
		return InterferenceReport{}, err
	}

	soloProfiles := e.soloProfiles(victim)
	soloFreqs := []float64{qos.BaselineFreqHz}
	if freqHz != qos.BaselineFreqHz {
		soloFreqs = append(soloFreqs, freqHz)
	}
	solo := newWalk(victim.Name, cfg, soloFreqs)
	// Mixed: the first half of the cores victim, the rest aggressor.
	mixedProfiles := e.soloProfiles(victim)
	for i := len(mixedProfiles) / 2; i < len(mixedProfiles); i++ {
		mixedProfiles[i] = aggressor
	}
	mixed := newWalk(victim.Name+"+"+aggressor.Name, cfg, []float64{freqHz})
	var err error
	if solo.live, err = e.warmedCluster(soloProfiles, qos.BaselineFreqHz); err != nil {
		return InterferenceReport{}, err
	}
	if mixed.live, err = e.warmedCluster(mixedProfiles, freqHz); err != nil {
		return InterferenceReport{}, err
	}
	if err := e.runWalks(context.Background(), []*walk{&solo, &mixed}); err != nil {
		return InterferenceReport{}, err
	}
	baseUIPC := victimUIPC(solo.res[0], victim, soloProfiles)
	soloUIPC := victimUIPC(solo.res[len(soloFreqs)-1], victim, soloProfiles)
	mixedUIPC := victimUIPC(mixed.res[0], victim, mixedProfiles)

	rep := InterferenceReport{
		Victim:    victim.Name,
		Aggressor: aggressor.Name,
		FreqHz:    freqHz,
		SoloUIPC:  soloUIPC,
		MixedUIPC: mixedUIPC,
	}
	if mixedUIPC > 0 {
		rep.Slowdown = soloUIPC / mixedUIPC
	}
	// QoS: the paper's latency scaling against the 2GHz solo baseline.
	baseUIPS := baseUIPC * qos.BaselineFreqHz
	rep.NormalizedSolo = qos.Normalized(victim, baseUIPS, soloUIPC*freqHz)
	rep.NormalizedMixed = qos.Normalized(victim, baseUIPS, mixedUIPC*freqHz)
	rep.QoSViolated = rep.NormalizedSolo <= 1 && rep.NormalizedMixed > 1
	return rep, nil
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
