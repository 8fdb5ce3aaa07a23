package core

import (
	"fmt"
	"math"

	"ntcsim/internal/cpu"
	"ntcsim/internal/obs"
	"ntcsim/internal/sim"
	"ntcsim/internal/workload"
)

// uipcBounds is the fixed bucket layout of the per-window UIPC histogram:
// a power-of-two ladder wide enough for any cluster configuration. Fixed
// bounds keep snapshots structurally identical across runs.
var uipcBounds = []float64{0.25, 0.5, 1, 2, 4, 8, 16, 32}

// pointKey builds the unique gauge-name prefix for one sweep point. Each
// (workload, frequency) pair writes its own gauges exactly once, which is
// what makes float-valued gauges safe under the determinism contract.
func pointKey(p *workload.Profile, freqHz float64) string {
	return fmt.Sprintf("point.%s.%04.0fMHz.", p.Name, freqHz/1e6)
}

// harvestWindow folds one measurement window into the registry:
// cumulative counters (commutative uint64 adds — deterministic across
// worker counts and task order) and the per-window UIPC histogram.
func harvestWindow(sink obs.Sink, m sim.Measurement) {
	var cs cpu.Stats
	for _, s := range m.PerCore {
		cs.Add(s)
	}
	sink.Histogram("sim.uipc_window", uipcBounds).Observe(m.UIPC())
	sink.Counter("sim.windows").Add(1)
	sink.Counter("sim.cycles").Add(uint64(m.Cycles))
	sink.Counter("sim.instructions").Add(m.Instructions)
	sink.Counter("sim.user_instructions").Add(m.UserInstructions)
	sink.Counter("cpu.branches").Add(cs.Branches)
	sink.Counter("cpu.mispredicts").Add(cs.Mispredicts)
	sink.Counter("cpu.prefetches").Add(cs.Prefetches)
	sink.Counter("cpu.stall.frontend").Add(cs.FrontendStall)
	sink.Counter("cpu.stall.rob").Add(cs.ROBStall)
	sink.Counter("cpu.stall.dep").Add(cs.DepStall)
	sink.Counter("cpu.stall.issue").Add(cs.IssueStall)
	sink.Counter("cpu.stall.mem").Add(cs.MemStall)
	sink.Counter("cpu.llc_requests").Add(cs.LLCRequests)
	sink.Counter("cache.l1i.accesses").Add(cs.L1I.Accesses)
	sink.Counter("cache.l1i.hits").Add(cs.L1I.Hits)
	sink.Counter("cache.l1i.misses").Add(cs.L1I.Misses)
	sink.Counter("cache.l1i.writebacks").Add(cs.L1I.Writebacks)
	sink.Counter("cache.l1d.accesses").Add(cs.L1D.Accesses)
	sink.Counter("cache.l1d.hits").Add(cs.L1D.Hits)
	sink.Counter("cache.l1d.misses").Add(cs.L1D.Misses)
	sink.Counter("cache.l1d.writebacks").Add(cs.L1D.Writebacks)
	sink.Counter("cache.llc.accesses").Add(m.LLC.Accesses)
	sink.Counter("cache.llc.hits").Add(m.LLC.Hits)
	sink.Counter("cache.llc.misses").Add(m.LLC.Misses)
	sink.Counter("cache.llc.writebacks").Add(m.LLC.Writebacks)
	sink.Counter("uncore.xbar_transfers").Add(m.XbarTransfers)
	sink.Counter("dram.reads").Add(m.DRAM.Reads)
	sink.Counter("dram.writes").Add(m.DRAM.Writes)
	sink.Counter("dram.row_hits").Add(m.DRAM.RowHits)
	sink.Counter("dram.row_conflicts").Add(m.DRAM.RowConflicts)
	sink.Counter("dram.row_closed").Add(m.DRAM.RowClosed)
	sink.Counter("dram.activations").Add(m.DRAM.Activations)
	sink.Counter("dram.bytes_read").Add(m.DRAM.BytesRead)
	sink.Counter("dram.bytes_written").Add(m.DRAM.BytesWritten)
	// Rounded to integral nanoseconds per window: each window's value is
	// deterministic, and uint64 adds commute, so the total stays
	// deterministic where a float sum would not.
	sink.Counter("dram.refresh_stall_ns").Add(uint64(math.Round(m.DRAM.RefreshStallsNs)))
}

// harvestPoint records a finished point's evaluated result: energy
// breakdown by component and the efficiency figures, one uniquely-keyed
// gauge set per point.
func harvestPoint(sink obs.Sink, p *workload.Profile, pt Point) {
	key := pointKey(p, pt.FreqHz)
	sink.Gauge(key + "uips_chip").Set(pt.UIPSChip)
	sink.Gauge(key + "cores_w").Set(pt.Power.CoresW())
	sink.Gauge(key + "uncore_w").Set(pt.Power.UncoreW())
	sink.Gauge(key + "memory_w").Set(pt.Power.DRAMW)
	sink.Gauge(key + "eff_cores").Set(pt.EffCores)
	sink.Gauge(key + "eff_soc").Set(pt.EffSoC)
	sink.Gauge(key + "eff_server").Set(pt.EffServer)
	sink.Gauge(key + "rel_err").Set(pt.RelErr)
}
