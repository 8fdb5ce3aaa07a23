package main

// metric declares one reported number. BENCHMARK.json repeats the name,
// unit and direction of every metric; TestBenchmarkJSONMatchesHarness
// keeps the two in step.
type metric struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// counter marks a deterministic count (or a ratio of counts): for the
	// same code and seed it must repeat exactly, and compare checks that.
	counter bool
	// floor is an absolute worsening, in the metric's unit, that compare
	// always tolerates on top of the relative bound in BENCHMARK.json:
	// timer and exec jitter on a quantity a few milliseconds long.
	floor float64
}

// endToEnd are the metrics a user of ntcsim or ntcsimd sees, reported by
// untraced runs as the median over a run's repetitions.
var endToEnd = []metric{
	{name: "wall_s", unit: "s", better: "lower"},
	{name: "cpu_s", unit: "s", better: "lower"},
	{name: "peak_rss_mb", unit: "MB", better: "lower"},
	{name: "setup_s", unit: "s", better: "lower", floor: 0.002},
}

// perLayer are the metrics of single layers, reported by traced runs. A
// layer a workload never enters reports 0 (serve.* on the sweep
// workloads, service.* on the CLI workloads); ntcsimd has no profiling
// endpoint, so prof.* read 0 on daemon-session.
var perLayer = []metric{
	// CPU profile: share of all samples whose leaf frame (self) or any
	// frame (cum) lies in the layer's package.
	{name: "prof.workload.self_pct", unit: "%", better: "lower"},
	{name: "prof.workload.cum_pct", unit: "%", better: "lower"},
	{name: "prof.rng.self_pct", unit: "%", better: "lower"},
	{name: "prof.math.self_pct", unit: "%", better: "lower"},
	{name: "prof.cpu.self_pct", unit: "%", better: "lower"},
	{name: "prof.cache.self_pct", unit: "%", better: "lower"},
	{name: "prof.sim.self_pct", unit: "%", better: "lower"},
	{name: "prof.uncore.self_pct", unit: "%", better: "lower"},
	{name: "prof.dram.self_pct", unit: "%", better: "lower"},
	{name: "prof.serve.self_pct", unit: "%", better: "lower"},
	{name: "prof.serve.cum_pct", unit: "%", better: "lower"},
	{name: "prof.governor.self_pct", unit: "%", better: "lower"},
	{name: "prof.qos.self_pct", unit: "%", better: "lower"},
	{name: "prof.obs.self_pct", unit: "%", better: "lower"},
	{name: "prof.runtime.self_pct", unit: "%", better: "lower"},
	{name: "prof.fn.rng_geometric.cum_pct", unit: "%", better: "lower"},
	{name: "prof.fn.rng_zipf_next.cum_pct", unit: "%", better: "lower"},
	{name: "prof.fn.cpu_step.cum_pct", unit: "%", better: "lower"},
	{name: "prof.fn.cpu_fastforward.cum_pct", unit: "%", better: "lower"},
	{name: "prof.fn.cluster_access.cum_pct", unit: "%", better: "lower"},

	// Counter-class registry counters of the modelled hardware.
	{name: "cpu.mispredict_ratio", unit: "ratio", better: "lower", counter: true},
	{name: "cpu.mshr_full_events", unit: "count", better: "lower", counter: true},
	{name: "cache.l1d.hit_ratio", unit: "ratio", better: "higher", counter: true},
	{name: "cache.l1i.hit_ratio", unit: "ratio", better: "higher", counter: true},
	{name: "cache.llc.hit_ratio", unit: "ratio", better: "higher", counter: true},
	{name: "dram.reads", unit: "count", better: "lower", counter: true},
	{name: "dram.row_hit_ratio", unit: "ratio", better: "higher", counter: true},
	{name: "uncore.xbar_transfers", unit: "count", better: "lower", counter: true},
	{name: "sim.cycles", unit: "count", better: "lower", counter: true},
	{name: "sim.user_instructions", unit: "count", better: "lower", counter: true},
	{name: "sampling.windows", unit: "count", better: "lower", counter: true},
	{name: "serve.arrivals", unit: "count", better: "higher", counter: true},
	{name: "serve.served", unit: "count", better: "higher", counter: true},
	{name: "serve.dropped", unit: "count", better: "lower", counter: true},

	// Sweep engine: trace spans on the CLI, SSE progress events on the
	// daemon. Spans measure latency, CPU wait included.
	{name: "core.sweeps", unit: "count", better: "lower", counter: true},
	{name: "core.points", unit: "count", better: "lower", counter: true},
	{name: "core.warm_s", unit: "s", better: "lower"},
	{name: "core.baseline_s", unit: "s", better: "lower"},
	{name: "core.point_ms_p50", unit: "ms", better: "lower"},
	{name: "core.point_ms_tail", unit: "ms", better: "lower"},
	{name: "sampling.fastforward_s", unit: "s", better: "lower"},
	{name: "sampling.warmup_s", unit: "s", better: "lower"},
	{name: "sampling.measure_s", unit: "s", better: "lower"},
	{name: "parallel.sweep.queue_wait_s", unit: "s", better: "lower"},
	{name: "parallel.sweep.busy_s", unit: "s", better: "lower"},

	// Job service, timed by the client from submit to the last result byte.
	{name: "service.cold_job_ms_p50", unit: "ms", better: "lower"},
	{name: "service.cold_job_ms_tail", unit: "ms", better: "lower"},
	{name: "service.hit_ms_p50", unit: "ms", better: "lower"},
	{name: "service.hit_ms_tail", unit: "ms", better: "lower"},
	{name: "service.jobs_submitted", unit: "count", better: "lower", counter: true},
	{name: "service.cache_hits", unit: "count", better: "higher", counter: true},
	{name: "service.jobs_failed", unit: "count", better: "lower", counter: true},
	{name: "service.jobs_retained", unit: "count", better: "lower", counter: true},
	{name: "service.rss_mb_end", unit: "MB", better: "lower"},

	// Go runtime of the traced process, from GODEBUG=gctrace=1.
	{name: "go.gc_cycles", unit: "count", better: "lower"},
	{name: "go.heap_peak_mb", unit: "MB", better: "lower"},

	{name: "trace_overhead_pct", unit: "%", better: "lower"},
}
