package sim

import (
	"bytes"
	"testing"

	"ntcsim/internal/obs"
	"ntcsim/internal/workload"
)

// obsCluster runs a short simulation with observability enabled and
// harvests it into a fresh registry.
func obsCluster(t *testing.T, cycles int64) (*Cluster, *obs.Registry) {
	t.Helper()
	cl, err := NewCluster(DefaultConfig(), workload.WebSearch(), 1e9)
	if err != nil {
		t.Fatal(err)
	}
	cl.EnableObs()
	cl.Run(cycles)
	r := obs.NewRegistry()
	cl.HarvestObs(r)
	return cl, r
}

// TestEnableObsDoesNotPerturbSimulation: a cluster with observability on
// must produce the identical Measurement as one without.
func TestEnableObsDoesNotPerturbSimulation(t *testing.T) {
	run := func(enable bool) Measurement {
		cl, err := NewCluster(DefaultConfig(), workload.WebSearch(), 1e9)
		if err != nil {
			t.Fatal(err)
		}
		if enable {
			cl.EnableObs()
		}
		cl.Run(20_000)
		return cl.Measure(30_000)
	}
	off, on := run(false), run(true)
	if len(off.PerCore) != len(on.PerCore) {
		t.Fatal("core counts differ")
	}
	for i := range off.PerCore {
		if off.PerCore[i] != on.PerCore[i] {
			t.Fatalf("core %d stats differ with observability on", i)
		}
	}
	if off.LLC != on.LLC || off.DRAM != on.DRAM || off.Cycles != on.Cycles {
		t.Fatal("cluster measurement differs with observability on")
	}
}

// TestHarvestObsPopulatesRegistry: harvest must report the MSHR counters
// and the complete per-bank DRAM key set, with per-bank sums matching the
// aggregate DRAM statistics.
func TestHarvestObsPopulatesRegistry(t *testing.T) {
	cl, r := obsCluster(t, 50_000)
	snap := r.Snapshot()
	if _, ok := snap.Counters["cpu.mshr_full_events"]; !ok {
		t.Fatal("missing cpu.mshr_full_events")
	}
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
	// Stats were not reset since enable, so cumulative per-bank counts
	// must equal the aggregate counters exactly.
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

// TestRestoredClusterObsDisabled: a clone must come up with
// observability off — instrumentation is not simulator state.
func TestRestoredClusterObsDisabled(t *testing.T) {
	cl, err := NewCluster(DefaultConfig(), workload.WebSearch(), 1e9)
	if err != nil {
		t.Fatal(err)
	}
	cl.EnableObs()
	cl.Run(10_000)
	clone := cl.Clone()
	if clone.mem.sys.PerBankCounts() != nil {
		t.Fatal("a clone must have observability disabled")
	}
	for _, c := range clone.cores {
		if c.MSHROccupancy() != nil {
			t.Fatal("a cloned core must have observability disabled")
		}
	}
}
