package core

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"ntcsim/internal/obs"
	"ntcsim/internal/qos"
	"ntcsim/internal/sampling"
	"ntcsim/internal/workload"
)

// TestFastForwardBetweenSamplesOnly: sample k of every point is measured
// on a clone of the live point after exactly k fast-forwards. The first
// sample starts from the warmed cluster itself, and no point runs a
// settle window or a fast-forward of its own. The sweep must equal this
// hand-written walk bit for bit.
func TestFastForwardBetweenSamplesOnly(t *testing.T) {
	e := warmExplorer(t)
	p := workload.WebSearch()
	freqs := []float64{0.3e9, 0.5e9, 1.0e9, 2.0e9}
	sw, err := e.Sweep(context.Background(), p, freqs)
	if err != nil {
		t.Fatal(err)
	}

	cfg := e.SamplingFor(p)
	var w walk
	if err := e.prelude(&w, e.soloProfiles(p), qos.BaselineFreqHz); err != nil {
		t.Fatal(err)
	}
	live := w.live
	res := make([]sampling.Result, len(freqs))
	stopped := make([]bool, len(freqs))
	for k := 0; k < cfg.MaxSamples; k++ {
		if k > 0 {
			live.FastForward(cfg.FastForwardInstr)
		}
		for i, f := range freqs {
			if stopped[i] {
				continue
			}
			cl := live.Clone()
			cl.SetFrequency(f)
			cl.Run(cfg.WarmupCycles)
			stopped[i] = res[i].Add(cl.Measure(cfg.MeasureCycles), cfg)
		}
	}
	want := &Sweep{Workload: p, Points: make([]Point, len(freqs))}
	for i, f := range freqs {
		op, err := e.Platform.Tech.OperatingPointFor(f, 0)
		if err != nil {
			t.Fatal(err)
		}
		want.Points[i] = e.evaluate(f, op, res[i])
	}
	want.setQoS()
	requireIdentical(t, sw, want)
}

// TestSweepWalksOncePerWorkload guards the walk's gain: a sweep
// fast-forwards its workload's live point once per round, not once per
// point and sample. A traced quick sweep of one workload over four
// frequencies records max(Samples) − 1 fast-forward spans, one warm-up
// span, and one warmup, measure and point span per sample.
func TestSweepWalksOncePerWorkload(t *testing.T) {
	e := warmExplorer(t)
	e.Jobs = 2
	var buf bytes.Buffer
	e.Tracer = obs.NewTracer(&buf)
	sw, err := e.Sweep(context.Background(), workload.WebSearch(), []float64{0.2e9, 0.5e9, 1.0e9, 2.0e9})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Tracer.Close(); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Cat  string `json:"cat"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	spans := map[string]int{} // by category, and by phase for "sample"
	for _, ev := range trace.TraceEvents {
		key := ev.Cat
		if ev.Cat == "sample" {
			key += "/" + ev.Name
		}
		spans[key]++
	}
	rounds, samples, perPoint := 0, 0, 0
	for _, pt := range sw.Points {
		rounds = max(rounds, pt.Samples)
		samples += pt.Samples
		perPoint += pt.Samples - 1
	}
	if got := spans["sample/fastforward"]; got != rounds-1 {
		t.Fatalf("%d fast-forward spans, want one per round after the first: %d (per-point walks would record %d)",
			got, rounds-1, perPoint)
	}
	if spans["sweep"] != 1 {
		t.Fatalf("%d sweep spans, want one warm-up", spans["sweep"])
	}
	for _, key := range []string{"sample/warmup", "sample/measure", "point"} {
		if spans[key] != samples {
			t.Fatalf("%d %s spans, want one per sample: %d", spans[key], key, samples)
		}
	}
}

// TestInterferenceBaselineIsSoloAtTwoGHz: at 2GHz the solo run and the
// baseline are one point of one walk, so the victim's normalized solo
// latency is exactly its 2GHz baseline over its QoS limit.
func TestInterferenceBaselineIsSoloAtTwoGHz(t *testing.T) {
	v := workload.WebSearch()
	rep := interference(t, warmExplorer(t), qos.BaselineFreqHz)[0]
	if want := float64(v.Baseline99p) / float64(v.QoSLimit); rep.NormalizedSolo != want {
		t.Fatalf("NormalizedSolo = %v at 2GHz, want Baseline99p/QoSLimit = %v", rep.NormalizedSolo, want)
	}
}
