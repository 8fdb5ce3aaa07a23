package sim

import (
	"fmt"
	"sync"

	"ntcsim/internal/obs"
)

// HarvestObs adds the window counters that no Measurement carries to
// reg: every core's MSHR occupancy histogram and the per-bank DRAM
// command counts. Like every counter, they cover the window since the
// last ResetStats, so call it once per window, after Measure. The adds
// are unsigned and commute, so the totals are deterministic across
// worker counts. A nil-registry caller should skip the call; reg must be
// non-nil here.
func (cl *Cluster) HarvestObs(reg *obs.Registry) {
	names := harvestNamesFor(cl.cfg)
	h := reg.Histogram("cpu.mshr_occupancy", names.occBounds)
	for _, c := range cl.cores {
		for i, n := range c.MSHROccupancy() {
			h.ObserveN(float64(i), n)
		}
	}
	for ch, banks := range names.banks {
		for b, name := range banks {
			bc := cl.mem.sys.BankCounts(ch, b)
			// Add(0) included: every harvest reports the full per-bank
			// key set, so snapshots are structurally identical regardless
			// of which banks happened to see traffic.
			reg.Counter(name.act).Add(bc.ACT)
			reg.Counter(name.pre).Add(bc.PRE)
			reg.Counter(name.rd).Add(bc.RD)
			reg.Counter(name.wr).Add(bc.WR)
		}
	}
}

// harvestNames is what HarvestObs needs for one cluster shape besides
// its counts: the occupancy histogram's bounds, one bucket per possible
// outstanding-miss count 1 to MSHREntries, and the counter names of each
// DRAM bank, indexed [channel][rank*BanksPerRank+bank].
type harvestNames struct {
	occBounds []float64
	banks     [][]bankNames
}

type bankNames struct{ act, pre, rd, wr string }

// harvestShape is what harvestNames depends on.
type harvestShape struct{ mshrs, channels, banks int }

var (
	harvestNamesMu sync.Mutex
	harvestNamesBy = map[harvestShape]*harvestNames{}
)

// harvestNamesFor returns the names of cfg's shape, built on the first
// call for that shape and shared read-only after it, so that a harvest
// formats no name. The shapes are the configurations of the clusters
// built, a handful per process.
func harvestNamesFor(cfg Config) *harvestNames {
	shape := harvestShape{cfg.Core.MSHREntries, cfg.DRAM.Channels, cfg.DRAM.RanksPerChan * cfg.DRAM.BanksPerRank}
	harvestNamesMu.Lock()
	defer harvestNamesMu.Unlock()
	if n := harvestNamesBy[shape]; n != nil {
		return n
	}
	n := &harvestNames{
		occBounds: make([]float64, shape.mshrs),
		banks:     make([][]bankNames, shape.channels),
	}
	for i := range n.occBounds {
		n.occBounds[i] = float64(i + 1)
	}
	for ch := range n.banks {
		n.banks[ch] = make([]bankNames, shape.banks)
		for b := range n.banks[ch] {
			prefix := fmt.Sprintf("dram.ch%d.bank%02d.", ch, b)
			n.banks[ch][b] = bankNames{prefix + "act", prefix + "pre", prefix + "rd", prefix + "wr"}
		}
	}
	harvestNamesBy[shape] = n
	return n
}
