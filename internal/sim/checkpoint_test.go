package sim

import (
	"reflect"
	"runtime"
	"testing"

	"ntcsim/internal/workload"
)

// sameState reports whether two clusters hold the same simulator state.
// It compares their clones, which leave out the Run/FastForward scratch
// and the observability counters: neither is state.
func sameState(a, b *Cluster) bool { return reflect.DeepEqual(a.clone(), b.clone()) }

func TestCheckpointIdenticalContinuation(t *testing.T) {
	// A restored cluster must continue *bit-identically* to the original:
	// warm, checkpoint, then run both sides and compare measurements.
	cfg := DefaultConfig()
	orig, err := NewCluster(cfg, workload.WebSearch(), 1e9)
	if err != nil {
		t.Fatal(err)
	}
	orig.FastForward(200000)
	orig.Run(20000)

	restored := RestoreCluster(orig.Checkpoint())

	a := orig.Measure(30000)
	b := restored.Measure(30000)
	if a.Instructions != b.Instructions || a.UserInstructions != b.UserInstructions {
		t.Fatalf("instruction streams diverged: %d/%d vs %d/%d",
			a.Instructions, a.UserInstructions, b.Instructions, b.UserInstructions)
	}
	if a.LLC != b.LLC {
		t.Fatalf("LLC stats diverged: %+v vs %+v", a.LLC, b.LLC)
	}
	if a.DRAM != b.DRAM {
		t.Fatalf("DRAM stats diverged: %+v vs %+v", a.DRAM, b.DRAM)
	}
	for i := range a.PerCore {
		if a.PerCore[i] != b.PerCore[i] {
			t.Fatalf("core %d stats diverged", i)
		}
	}
}

// TestCheckpointCoversLLCTraffic is the regression test for a real
// coverage gap the snapshotcheck analyzer surfaced: llcReads and
// llcWrites were accumulated by Access but never checkpointed, so a
// restored cluster silently lost its LLC read/write split (latent only
// because Measure resets stats first). Every accumulated counter must
// survive the round trip, and the restored cluster must hold exactly the
// original's state.
func TestCheckpointCoversLLCTraffic(t *testing.T) {
	cfg := DefaultConfig()
	orig, err := NewCluster(cfg, workload.WebSearch(), 1e9)
	if err != nil {
		t.Fatal(err)
	}
	orig.FastForward(100000)
	orig.Run(20000)
	if orig.llcReads == 0 || orig.llcWrites == 0 {
		t.Fatalf("warmup produced no LLC traffic (reads=%d writes=%d); test is vacuous",
			orig.llcReads, orig.llcWrites)
	}

	restored := RestoreCluster(orig.Checkpoint())
	if restored.llcReads != orig.llcReads || restored.llcWrites != orig.llcWrites {
		t.Fatalf("restore dropped counters: got reads=%d writes=%d, want %d/%d",
			restored.llcReads, restored.llcWrites, orig.llcReads, orig.llcWrites)
	}
	if !sameState(restored, orig) {
		t.Fatal("the restored cluster's state differs from the original's")
	}
}

// TestCloneIsolated: a checkpoint and every cluster restored from it are
// independent deep copies. Running one restore, with observability on,
// leaves a second restore, the checkpoint and the source untouched.
func TestCloneIsolated(t *testing.T) {
	profiles := []*workload.Profile{
		workload.WebSearch(), workload.DataServing(), workload.MediaStreaming(), workload.VMHighMem(),
	}
	build := func() *Cluster {
		cl, err := NewMixedCluster(DefaultConfig(), profiles, 2e9)
		if err != nil {
			t.Fatal(err)
		}
		cl.EnableObs()
		cl.FastForward(30_000)
		cl.Run(5_000)
		return cl
	}
	// twin follows the source's history without ever meeting a clone.
	src, twin := build(), build()
	ck := src.Checkpoint()
	ref := RestoreCluster(ck)
	a, b := RestoreCluster(ck), RestoreCluster(ck)

	a.EnableObs()
	a.SetFrequency(0.5e9)
	a.FastForward(20_000)
	a.Run(3_000)
	if m := a.Measure(10_000); m.Instructions == 0 {
		t.Fatal("the running restore committed nothing; test is vacuous")
	}
	if sameState(a, ref) {
		t.Fatal("running a restore left its state unchanged; test is vacuous")
	}
	if !reflect.DeepEqual(b, ref) {
		t.Fatal("running one restore changed another")
	}
	if !reflect.DeepEqual(src, twin) {
		t.Fatal("running a restore changed the checkpoint's source cluster")
	}
	if !sameState(RestoreCluster(ck), twin) {
		t.Fatal("running a restore changed the checkpoint")
	}
}

func TestCheckpointPreservesDVFSContext(t *testing.T) {
	// Checkpoint at one frequency, restore, retarget: the warmed state
	// carries over, which is the whole point (warm once, sweep many).
	cfg := DefaultConfig()
	orig, err := NewCluster(cfg, workload.WebSearch(), 2e9)
	if err != nil {
		t.Fatal(err)
	}
	orig.FastForward(300000)
	orig.Run(10000)

	restored := RestoreCluster(orig.Checkpoint())
	restored.SetFrequency(0.5e9)
	restored.Run(10000)
	m := restored.Measure(20000)
	if m.UIPC() <= 0 {
		t.Fatal("restored cluster should simulate after a DVFS change")
	}
	// A warmed restore must beat a cold cluster at the same point.
	cold, err := NewCluster(cfg, workload.WebSearch(), 0.5e9)
	if err != nil {
		t.Fatal(err)
	}
	coldM := cold.Measure(20000)
	if m.PerCore[0].L1D.HitRate() <= coldM.PerCore[0].L1D.HitRate() {
		t.Fatalf("restored caches should be warm: %.3f vs cold %.3f",
			m.PerCore[0].L1D.HitRate(), coldM.PerCore[0].L1D.HitRate())
	}
}

// restorePair warms a cluster running p and restores a second one from
// its checkpoint, which shares its generator plans.
func restorePair(t *testing.T, p *workload.Profile) (src, restored *Cluster) {
	t.Helper()
	src, err := NewCluster(DefaultConfig(), p, 1.5e9)
	if err != nil {
		t.Fatal(err)
	}
	src.FastForward(60000)
	src.Run(5000)
	return src, RestoreCluster(src.Checkpoint())
}

// TestRestoreKeepsEditedProfile warms a cluster on an edited profile that
// keeps web-search's name. The checkpoint shares its plans, so the
// restored cluster runs the edited profile and continues exactly as the
// source does, not as the registered web-search would.
func TestRestoreKeepsEditedProfile(t *testing.T) {
	p := workload.WebSearch()
	p.LoadFrac = 0.10
	src, restored := restorePair(t, p)
	if &restored.plans[0] != &src.plans[0] {
		t.Fatal("restore built its plans again")
	}
	if a, b := restored.Measure(20000), src.Measure(20000); !reflect.DeepEqual(a, b) {
		t.Fatalf("restored cluster diverged from its source:\n%+v\n%+v", a, b)
	}
}

// warmedWebServing returns a web-serving cluster (16,384 static branches
// per core) after a short functional warm-up, for the checkpoint
// benchmarks and footprint test.
func warmedWebServing(tb testing.TB) *Cluster {
	src, err := NewCluster(DefaultConfig(), workload.WebServing(), 1.5e9)
	if err != nil {
		tb.Fatal(err)
	}
	src.FastForward(20000)
	return src
}

// Sinks keep the benchmarked calls' results live.
var (
	ckSink *Checkpoint
	clSink *Cluster
)

// BenchmarkCheckpoint measures a sweep's capture of its warmed cluster.
func BenchmarkCheckpoint(b *testing.B) {
	src := warmedWebServing(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ckSink = src.Checkpoint()
	}
}

// BenchmarkRestoreCluster measures one sweep point's restore of a warmed
// cluster from its checkpoint.
func BenchmarkRestoreCluster(b *testing.B) {
	ck := warmedWebServing(b).Checkpoint()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clSink = RestoreCluster(ck)
	}
}

// TestCheckpointFootprint pins what a checkpoint and a restore of the
// default cluster allocate: at most 512 KiB each (484,760 B when this
// was written: four LLC banks of 16,384 4-byte ways, four cores' issue
// rings of 8,192 4-byte entries, their L1s and predictors). A library
// of one checkpoint per sample multiplies any new per-core or per-set
// array, so growth must be a deliberate change to this bound.
func TestCheckpointFootprint(t *testing.T) {
	const limit = 512 << 10
	src := warmedWebServing(t)
	ck := src.Checkpoint()
	for _, tc := range []struct {
		name string
		op   func()
	}{
		{"Checkpoint", func() { ckSink = src.Checkpoint() }},
		{"RestoreCluster", func() { clSink = RestoreCluster(ck) }},
	} {
		if got := allocatedBytes(tc.op); got > limit {
			t.Errorf("%s allocates %d B per call, above %d", tc.name, got, limit)
		}
	}
}

// allocatedBytes returns the heap bytes op allocates per call, averaged
// over a few calls on one P (as testing.AllocsPerRun counts objects).
func allocatedBytes(op func()) uint64 {
	const runs = 8
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	op() // first-call allocations are not per-call cost
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		op()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / runs
}
