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
func harvestWindow(reg *obs.Registry, m sim.Measurement) {
	var cs cpu.Stats
	for _, s := range m.PerCore {
		cs.Add(s)
	}
	reg.Histogram("sim.uipc_window", uipcBounds).Observe(m.UIPC())
	reg.Counter("sim.windows").Add(1)
	reg.Counter("sim.cycles").Add(uint64(m.Cycles))
	reg.Counter("sim.instructions").Add(m.Instructions)
	reg.Counter("sim.user_instructions").Add(m.UserInstructions)
	reg.Counter("cpu.branches").Add(cs.Branches)
	reg.Counter("cpu.mispredicts").Add(cs.Mispredicts)
	reg.Counter("cpu.prefetches").Add(cs.Prefetches)
	reg.Counter("cpu.stall.frontend").Add(cs.FrontendStall)
	reg.Counter("cpu.stall.rob").Add(cs.ROBStall)
	reg.Counter("cpu.stall.dep").Add(cs.DepStall)
	reg.Counter("cpu.stall.issue").Add(cs.IssueStall)
	reg.Counter("cpu.stall.mem").Add(cs.MemStall)
	reg.Counter("cpu.llc_requests").Add(cs.LLCRequests)
	reg.Counter("cache.l1i.accesses").Add(cs.L1I.Accesses)
	reg.Counter("cache.l1i.hits").Add(cs.L1I.Hits)
	reg.Counter("cache.l1i.misses").Add(cs.L1I.Misses)
	reg.Counter("cache.l1i.writebacks").Add(cs.L1I.Writebacks)
	reg.Counter("cache.l1d.accesses").Add(cs.L1D.Accesses)
	reg.Counter("cache.l1d.hits").Add(cs.L1D.Hits)
	reg.Counter("cache.l1d.misses").Add(cs.L1D.Misses)
	reg.Counter("cache.l1d.writebacks").Add(cs.L1D.Writebacks)
	reg.Counter("cache.llc.accesses").Add(m.LLC.Accesses)
	reg.Counter("cache.llc.hits").Add(m.LLC.Hits)
	reg.Counter("cache.llc.misses").Add(m.LLC.Misses)
	reg.Counter("cache.llc.writebacks").Add(m.LLC.Writebacks)
	reg.Counter("uncore.xbar_transfers").Add(m.XbarTransfers)
	reg.Counter("dram.reads").Add(m.DRAM.Reads)
	reg.Counter("dram.writes").Add(m.DRAM.Writes)
	reg.Counter("dram.row_hits").Add(m.DRAM.RowHits)
	reg.Counter("dram.row_conflicts").Add(m.DRAM.RowConflicts)
	reg.Counter("dram.row_closed").Add(m.DRAM.RowClosed)
	reg.Counter("dram.activations").Add(m.DRAM.Activations)
	reg.Counter("dram.bytes_read").Add(m.DRAM.BytesRead)
	reg.Counter("dram.bytes_written").Add(m.DRAM.BytesWritten)
	// Rounded to integral nanoseconds per window: each window's value is
	// deterministic, and uint64 adds commute, so the total stays
	// deterministic where a float sum would not.
	reg.Counter("dram.refresh_stall_ns").Add(uint64(math.Round(m.DRAM.RefreshStallsNs)))
}

// harvestPoint records a finished point's evaluated result: energy
// breakdown by component and the efficiency figures, one uniquely-keyed
// gauge set per point.
func harvestPoint(reg *obs.Registry, p *workload.Profile, pt Point) {
	key := pointKey(p, pt.FreqHz)
	reg.Gauge(key + "uips_chip").Set(pt.UIPSChip)
	reg.Gauge(key + "cores_w").Set(pt.Power.CoresW())
	reg.Gauge(key + "uncore_w").Set(pt.Power.UncoreW())
	reg.Gauge(key + "memory_w").Set(pt.Power.DRAMW)
	reg.Gauge(key + "eff_cores").Set(pt.EffCores)
	reg.Gauge(key + "eff_soc").Set(pt.EffSoC)
	reg.Gauge(key + "eff_server").Set(pt.EffServer)
	reg.Gauge(key + "rel_err").Set(pt.RelErr)
}
