package cpu

import (
	"slices"
	"testing"

	"ntcsim/internal/workload"
)

// memProfile is a load-heavy profile with a footprint far beyond the L1,
// so loads miss and exercise the MSHR file.
func memProfile() *workload.Profile {
	p := aluProfile()
	p.Name = "test-mem"
	p.LoadFrac = 0.5
	p.DataBytes = 64 << 20
	p.HotBytes = 32 << 20
	return p
}

// TestMSHROccupancyTracked: a miss-heavy run must record occupancy
// samples, bounded by the MSHR size, and totals must be internally
// consistent.
func TestMSHROccupancyTracked(t *testing.T) {
	c := newCore(t, memProfile(), &fixedMem{latNs: 400}, 2e9, 7)
	c.Run(50_000)
	occ := c.MSHROccupancy()
	if len(occ) != c.cfg.MSHREntries+1 {
		t.Fatalf("occupancy has %d slots, want MSHREntries+1 = %d", len(occ), c.cfg.MSHREntries+1)
	}
	if occ[0] != 0 {
		t.Fatalf("occupancy 0 sampled %d times; allocation always leaves >=1 in flight", occ[0])
	}
	var total uint64
	for _, n := range occ {
		total += n
	}
	if total == 0 {
		t.Fatal("miss-heavy run recorded no occupancy samples")
	}
}

// TestMSHRCountersResetWithStats: the MSHR counters are window
// statistics like every other; ResetStats clears them with the rest.
func TestMSHRCountersResetWithStats(t *testing.T) {
	c := newCore(t, memProfile(), &fixedMem{latNs: 400}, 2e9, 11)
	c.Run(30_000)
	if c.Stats().MSHRFull == 0 || slices.Max(c.MSHROccupancy()) == 0 {
		t.Fatalf("miss-heavy run filled no MSHR file (%d) or sampled no occupancy; test is vacuous", c.Stats().MSHRFull)
	}
	c.ResetStats()
	if c.Stats().MSHRFull != 0 || slices.Max(c.MSHROccupancy()) != 0 {
		t.Fatalf("ResetStats kept MSHR counters: full %d, occupancy %v", c.Stats().MSHRFull, c.MSHROccupancy())
	}
}
