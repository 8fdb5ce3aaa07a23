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
func sameState(a, b *Cluster) bool { return reflect.DeepEqual(a.Clone(), b.Clone()) }

func TestCheckpointIdenticalContinuation(t *testing.T) {
	// A clone must continue *bit-identically* to the original: warm,
	// clone, then run both sides and compare measurements.
	cfg := DefaultConfig()
	orig, err := NewCluster(cfg, workload.WebSearch(), 1e9)
	if err != nil {
		t.Fatal(err)
	}
	orig.FastForward(200000)
	orig.Run(20000)

	clone := orig.Clone()

	a := orig.Measure(30000)
	b := clone.Measure(30000)
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
// llcWrites were accumulated by Access but never copied, so a clone
// silently lost its LLC read/write split (latent only because Measure
// resets stats first). Every accumulated counter must survive the copy,
// and the clone must hold exactly the original's state.
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

	clone := orig.Clone()
	if clone.llcReads != orig.llcReads || clone.llcWrites != orig.llcWrites {
		t.Fatalf("clone dropped counters: got reads=%d writes=%d, want %d/%d",
			clone.llcReads, clone.llcWrites, orig.llcReads, orig.llcWrites)
	}
	if !sameState(clone, orig) {
		t.Fatal("the clone's state differs from the original's")
	}
}

// TestCloneIsolated: a live point and every clone of it are independent
// deep copies. Running one clone, with observability on, leaves a second
// clone and the live point untouched.
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
	ref := src.Clone()
	a, b := src.Clone(), src.Clone()

	a.EnableObs()
	a.SetFrequency(0.5e9)
	a.FastForward(20_000)
	a.Run(3_000)
	if m := a.Measure(10_000); m.Instructions == 0 {
		t.Fatal("the running clone committed nothing; test is vacuous")
	}
	if sameState(a, ref) {
		t.Fatal("running a clone left its state unchanged; test is vacuous")
	}
	if !reflect.DeepEqual(b, ref) {
		t.Fatal("running one clone changed another")
	}
	if !reflect.DeepEqual(src, twin) {
		t.Fatal("running a clone changed the live point")
	}
	if !sameState(src.Clone(), twin) {
		t.Fatal("running a clone changed what the live point clones to")
	}
}

func TestCheckpointPreservesDVFSContext(t *testing.T) {
	// Warm at one frequency, clone, retarget: the warmed state carries
	// over, which is the whole point (warm once, sweep many).
	cfg := DefaultConfig()
	orig, err := NewCluster(cfg, workload.WebSearch(), 2e9)
	if err != nil {
		t.Fatal(err)
	}
	orig.FastForward(300000)
	orig.Run(10000)

	clone := orig.Clone()
	clone.SetFrequency(0.5e9)
	clone.Run(10000)
	m := clone.Measure(20000)
	if m.UIPC() <= 0 {
		t.Fatal("a clone should simulate after a DVFS change")
	}
	// A warmed clone must beat a cold cluster at the same point.
	cold, err := NewCluster(cfg, workload.WebSearch(), 0.5e9)
	if err != nil {
		t.Fatal(err)
	}
	coldM := cold.Measure(20000)
	if m.PerCore[0].L1D.HitRate() <= coldM.PerCore[0].L1D.HitRate() {
		t.Fatalf("cloned caches should be warm: %.3f vs cold %.3f",
			m.PerCore[0].L1D.HitRate(), coldM.PerCore[0].L1D.HitRate())
	}
}

// clonePair warms a cluster running p and clones it; the clone shares
// its generator plans.
func clonePair(t *testing.T, p *workload.Profile) (src, clone *Cluster) {
	t.Helper()
	src, err := NewCluster(DefaultConfig(), p, 1.5e9)
	if err != nil {
		t.Fatal(err)
	}
	src.FastForward(60000)
	src.Run(5000)
	return src, src.Clone()
}

// TestRestoreKeepsEditedProfile warms a cluster on an edited profile that
// keeps web-search's name. The clone shares its plans, so it runs the
// edited profile and continues exactly as the source does, not as the
// registered web-search would.
func TestRestoreKeepsEditedProfile(t *testing.T) {
	p := workload.WebSearch()
	p.LoadFrac = 0.10
	src, clone := clonePair(t, p)
	if &clone.plans[0] != &src.plans[0] {
		t.Fatal("clone built its plans again")
	}
	if a, b := clone.Measure(20000), src.Measure(20000); !reflect.DeepEqual(a, b) {
		t.Fatalf("clone diverged from its source:\n%+v\n%+v", a, b)
	}
}

// warmedWebServing returns a web-serving cluster (16,384 static branches
// per core) after a short functional warm-up, for the clone benchmark
// and footprint test.
func warmedWebServing(tb testing.TB) *Cluster {
	src, err := NewCluster(DefaultConfig(), workload.WebServing(), 1.5e9)
	if err != nil {
		tb.Fatal(err)
	}
	src.FastForward(20000)
	return src
}

// clSink keeps the benchmarked clones live.
var clSink *Cluster

// BenchmarkClone measures one sample task's copy of a warmed live point.
func BenchmarkClone(b *testing.B) {
	src := warmedWebServing(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clSink = src.Clone()
	}
}

// TestCheckpointFootprint pins what a clone of the default cluster
// allocates: at most 512 KiB (484,752 B when this was written: four LLC
// banks of 16,384 4-byte ways, four cores' issue rings of 8,192 4-byte
// entries, their L1s and predictors). Every sample task of a sweep
// clones its live point once, so growth must be a deliberate change to
// this bound.
func TestCheckpointFootprint(t *testing.T) {
	const limit = 512 << 10
	src := warmedWebServing(t)
	if got := allocatedBytes(func() { clSink = src.Clone() }); got > limit {
		t.Errorf("Clone allocates %d B per call, above %d", got, limit)
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
