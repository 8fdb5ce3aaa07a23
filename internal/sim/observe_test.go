package sim

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"ntcsim/internal/cpu"
	"ntcsim/internal/obs"
	"ntcsim/internal/workload"
)

// obsCluster runs a short simulation and harvests it into a fresh
// registry.
func obsCluster(t *testing.T, cycles int64) (*Cluster, *obs.Registry) {
	t.Helper()
	cl, err := NewCluster(DefaultConfig(), workload.WebSearch(), 1e9)
	if err != nil {
		t.Fatal(err)
	}
	cl.Run(cycles)
	r := obs.NewRegistry()
	cl.HarvestObs(r)
	return cl, r
}

// TestHarvestObsPopulatesRegistry: harvest must report the MSHR
// occupancy and the complete per-bank DRAM key set, with per-bank sums
// matching the aggregate DRAM statistics.
func TestHarvestObsPopulatesRegistry(t *testing.T) {
	cl, r := obsCluster(t, 50_000)
	snap := r.Snapshot()
	if h, ok := snap.Histograms["cpu.mshr_occupancy"]; !ok || h.Count == 0 {
		t.Fatalf("mshr occupancy histogram missing or empty: %+v", h)
	}
	dcfg := DefaultConfig().DRAM
	wantKeys := dcfg.Channels * dcfg.RanksPerChan * dcfg.BanksPerRank * 4
	gotKeys := 0
	var rd, wr uint64
	for name, v := range snap.Counters {
		if len(name) > 5 && name[:5] == "dram." {
			gotKeys++
			switch name[len(name)-2:] {
			case "rd":
				rd += v
			case "wr":
				wr += v
			}
		}
	}
	if gotKeys != wantKeys {
		t.Fatalf("harvest produced %d dram keys, want full set %d", gotKeys, wantKeys)
	}
	dstats := cl.mem.sys.Stats()
	// Both cover everything since the cluster was built.
	if rd != dstats.Reads || wr != dstats.Writes {
		t.Fatalf("per-bank rd/wr %d/%d, aggregate %d/%d", rd, wr, dstats.Reads, dstats.Writes)
	}
}

// TestHarvestDeterministicAcrossRuns: two identical runs must harvest
// byte-identical registries (snapshot JSON compare).
func TestHarvestDeterministicAcrossRuns(t *testing.T) {
	_, r1 := obsCluster(t, 40_000)
	_, r2 := obsCluster(t, 40_000)
	var b1, b2 bytes.Buffer
	if err := r1.WriteJSON(&b1); err != nil {
		t.Fatal(err)
	}
	if err := r2.WriteJSON(&b2); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Fatal("identical runs harvested different snapshots")
	}
}

// TestHarvestObsCoversOneWindow: HarvestObs reports the window since the
// last ResetStats, like every counter, on a copy as on its source. After
// a warm-up and a Measure, the per-bank counts sum to that window's
// dram.Stats and the occupancy histogram counts that window's MSHR
// allocations; a copy taken mid-window harvests what its source does.
func TestHarvestObsCoversOneWindow(t *testing.T) {
	cl, err := NewCluster(DefaultConfig(), workload.WebSearch(), 1e9)
	if err != nil {
		t.Fatal(err)
	}
	cl.Run(20_000) // a warm-up whose traffic the window must not count
	m := cl.Measure(30_000)
	if m.DRAM.Reads == 0 {
		t.Fatal("the window reached no DRAM; test is vacuous")
	}
	r := obs.NewRegistry()
	cl.HarvestObs(r)
	snap := r.Snapshot()
	var sum [4]uint64
	for name, v := range snap.Counters {
		for i, cmd := range []string{".act", ".pre", ".rd", ".wr"} {
			if strings.HasPrefix(name, "dram.ch") && strings.HasSuffix(name, cmd) {
				sum[i] += v
			}
		}
	}
	if want := [4]uint64{m.DRAM.Activations, m.DRAM.RowConflicts, m.DRAM.Reads, m.DRAM.Writes}; sum != want {
		t.Fatalf("per-bank act/pre/rd/wr sums %v, the window's dram.Stats %v", sum, want)
	}
	occ := snap.Histograms["cpu.mshr_occupancy"].Count
	var cs cpu.Stats
	for _, s := range m.PerCore {
		cs.Add(s)
	}
	// Every load miss that allocates an MSHR is one occupancy sample and
	// one LLC request; prefetches and I-side misses are requests only.
	if occ == 0 || occ > cs.LLCRequests-cs.Prefetches {
		t.Fatalf("occupancy counted %d allocations, the window's demand requests %d", occ, cs.LLCRequests-cs.Prefetches)
	}

	cl.Run(5_000)
	cp := cl.Clone()
	a, b := obs.NewRegistry(), obs.NewRegistry()
	cl.HarvestObs(a)
	cp.HarvestObs(b)
	if !reflect.DeepEqual(a.Snapshot(), b.Snapshot()) {
		t.Fatal("a copy harvests other window counters than its source")
	}
}
