package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// registry is the part of an ntcsim metrics snapshot (the -metrics file
// or a daemon job's metrics artifact) the harness reads.
type registry struct {
	Counters map[string]uint64 `json:"counters"`
	Timings  map[string]timing `json:"timings_nondeterministic"`
}

type timing struct {
	TotalNs int64 `json:"total_ns"`
}

// add folds another snapshot into r.
func (r *registry) add(o registry) {
	if r.Counters == nil {
		r.Counters, r.Timings = map[string]uint64{}, map[string]timing{}
	}
	for k, v := range o.Counters {
		r.Counters[k] += v
	}
	for k, v := range o.Timings {
		r.Timings[k] = timing{r.Timings[k].TotalNs + v.TotalNs}
	}
}

// spans are the trace spans of a traced CLI repetition, summed by kind.
type spans struct {
	cmdS                            float64 // the whole command
	sweeps                          int     // warm spans, one per sweep
	warmS, baselineS                float64
	fastforwardS, warmupS, measureS float64
	pointMS                         []float64
}

// readSpans reads a Chrome trace written by ntcsim -trace.
func readSpans(path string) (spans, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return spans{}, err
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Cat  string  `json:"cat"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"` // microseconds
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return spans{}, fmt.Errorf("reading trace %s: %w", path, err)
	}
	var s spans
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		sec := ev.Dur / 1e6
		switch {
		case ev.Cat == "cmd":
			s.cmdS = sec
		case ev.Cat == "sweep" && strings.HasPrefix(ev.Name, "warm "):
			s.sweeps++
			s.warmS += sec
		case ev.Cat == "sweep" && strings.HasPrefix(ev.Name, "baseline "):
			s.baselineS += sec
		case ev.Cat == "point":
			s.pointMS = append(s.pointMS, ev.Dur/1e3)
		case ev.Cat == "sample" && ev.Name == "fastforward":
			s.fastforwardS += sec
		case ev.Cat == "sample" && ev.Name == "warmup":
			s.warmupS += sec
		case ev.Cat == "sample" && ev.Name == "measure":
			s.measureS += sec
		}
	}
	if s.cmdS == 0 {
		return spans{}, fmt.Errorf("trace %s has no command span", path)
	}
	return s, nil
}

// layerData is everything a traced repetition observed, from either
// frontend; fields a frontend cannot observe stay zero.
type layerData struct {
	reg   registry
	spans spans    // the CLI's trace; the daemon fills points and sweeps from SSE
	prof  *profile // CLI only: ntcsimd has no profiling endpoint
	// Daemon job service, timed by the client.
	coldMS, hitMS []float64
	service       map[string]uint64 // the daemon's /metrics counters
	retained      int
	rssEndMB      float64
	// GODEBUG=gctrace=1 of the traced process.
	gcCycles   int
	heapPeakMB float64
	// Traced wall over the median untraced wall, minus one, in percent.
	overheadPct float64
}

// metrics derives every per-layer metric.
func (d layerData) metrics() map[string]float64 {
	c := d.reg.Counters
	ratio := func(num, den uint64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	busyNs := int64(0)
	for name, t := range d.reg.Timings {
		if strings.HasPrefix(name, "parallel.sweep.worker") && strings.HasSuffix(name, ".busy") {
			busyNs += t.TotalNs
		}
	}
	m := map[string]float64{
		"cpu.mispredict_ratio":  ratio(c["cpu.mispredicts"], c["cpu.branches"]),
		"cpu.mshr_full_events":  float64(c["cpu.mshr_full_events"]),
		"cache.l1d.hit_ratio":   ratio(c["cache.l1d.hits"], c["cache.l1d.accesses"]),
		"cache.l1i.hit_ratio":   ratio(c["cache.l1i.hits"], c["cache.l1i.accesses"]),
		"cache.llc.hit_ratio":   ratio(c["cache.llc.hits"], c["cache.llc.accesses"]),
		"dram.reads":            float64(c["dram.reads"]),
		"dram.row_hit_ratio":    ratio(c["dram.row_hits"], c["dram.row_hits"]+c["dram.row_closed"]+c["dram.row_conflicts"]),
		"uncore.xbar_transfers": float64(c["uncore.xbar_transfers"]),
		"sim.cycles":            float64(c["sim.cycles"]),
		"sim.user_instructions": float64(c["sim.user_instructions"]),
		"sampling.windows":      float64(c["sim.windows"]),
		"serve.arrivals":        float64(c["serve.arrivals"]),
		"serve.served":          float64(c["serve.served"]),
		"serve.dropped":         float64(c["serve.dropped"]),

		"core.sweeps":                 float64(d.spans.sweeps),
		"core.points":                 float64(len(d.spans.pointMS)),
		"core.warm_s":                 d.spans.warmS,
		"core.baseline_s":             d.spans.baselineS,
		"core.point_ms_p50":           median(d.spans.pointMS),
		"core.point_ms_tail":          tail(d.spans.pointMS),
		"sampling.fastforward_s":      d.spans.fastforwardS,
		"sampling.warmup_s":           d.spans.warmupS,
		"sampling.measure_s":          d.spans.measureS,
		"parallel.sweep.queue_wait_s": float64(d.reg.Timings["parallel.sweep.queue_wait"].TotalNs) / 1e9,
		"parallel.sweep.busy_s":       float64(busyNs) / 1e9,

		"service.cold_job_ms_p50":  median(d.coldMS),
		"service.cold_job_ms_tail": tail(d.coldMS),
		"service.hit_ms_p50":       median(d.hitMS),
		"service.hit_ms_tail":      tail(d.hitMS),
		"service.jobs_submitted":   float64(d.service["service/jobs_submitted"]),
		"service.cache_hits":       float64(d.service["service/cache_hits"]),
		"service.jobs_failed":      float64(d.service["service/jobs_failed"]),
		"service.jobs_retained":    float64(d.retained),
		"service.rss_mb_end":       d.rssEndMB,

		"go.gc_cycles":       float64(d.gcCycles),
		"go.heap_peak_mb":    d.heapPeakMB,
		"trace_overhead_pct": d.overheadPct,
	}
	if p := d.prof; p != nil {
		for _, l := range []string{"workload", "rng", "math", "cpu", "cache", "sim", "uncore", "dram", "serve", "governor", "qos", "obs", "runtime"} {
			m["prof."+l+".self_pct"] = p.pct(p.self[l])
		}
		m["prof.workload.cum_pct"] = p.pct(p.cum["workload"])
		m["prof.serve.cum_pct"] = p.pct(p.cum["serve"])
		for key := range trackedFuncs {
			m["prof.fn."+key+".cum_pct"] = p.pct(p.fnCum[key])
		}
	}
	return m
}
