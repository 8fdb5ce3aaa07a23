package sim

import (
	"fmt"

	"ntcsim/internal/obs"
)

// EnableObs turns on the extra hot-path instrumentation in every layer
// below the cluster: per-core MSHR occupancy tracking and per-bank DRAM
// command counting. Clones come up with observability off (the
// instrumentation is not part of simulator state), so callers enable it
// per clone. Enabling does not change simulation results —
// only what gets counted on the side.
func (cl *Cluster) EnableObs() {
	for _, c := range cl.cores {
		c.EnableObs()
	}
	cl.mem.sys.EnableObs()
}

// HarvestObs flushes the cluster's cumulative instrumentation (everything
// EnableObs turned on) into reg. Call it exactly once per cluster, after
// the last simulation step: the underlying counters are cumulative since
// EnableObs, so a second harvest would double-count. All harvested values
// are unsigned counters merged with atomic adds — deterministic across
// worker counts. A nil-registry caller should skip the call; reg must be
// non-nil here.
func (cl *Cluster) HarvestObs(reg *obs.Registry) {
	var mshrFull uint64
	var occ []uint64
	for _, c := range cl.cores {
		mshrFull += c.MSHRFullStalls()
		co := c.MSHROccupancy()
		if co == nil {
			continue
		}
		if occ == nil {
			occ = make([]uint64, len(co))
		}
		for i, n := range co {
			occ[i] += n
		}
	}
	reg.Counter("cpu.mshr_full_events").Add(mshrFull)
	if occ != nil {
		// One bucket per possible outstanding-miss count [1, MSHREntries]
		// (an allocation always leaves at least one miss in flight).
		bounds := make([]float64, len(occ)-1)
		for i := range bounds {
			bounds[i] = float64(i + 1)
		}
		h := reg.Histogram("cpu.mshr_occupancy", bounds)
		for i, n := range occ {
			h.ObserveN(float64(i), n)
		}
	}

	for chIdx, banks := range cl.mem.sys.PerBankCounts() {
		for bankIdx := range banks {
			bc := &banks[bankIdx]
			prefix := fmt.Sprintf("dram.ch%d.bank%02d.", chIdx, bankIdx)
			// Add(0) included: every enabled run reports the full per-bank
			// key set, so snapshots are structurally identical regardless
			// of which banks happened to see traffic.
			reg.Counter(prefix + "act").Add(bc.ACT)
			reg.Counter(prefix + "pre").Add(bc.PRE)
			reg.Counter(prefix + "rd").Add(bc.RD)
			reg.Counter(prefix + "wr").Add(bc.WR)
		}
	}
}
