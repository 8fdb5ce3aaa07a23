package sim

import (
	"reflect"
	"runtime"
	"testing"

	"ntcsim/internal/obs"
	"ntcsim/internal/workload"
)

// sameState reports whether two clusters hold the same simulator state.
// It compares their clones, which leave out the Run/FastForward scratch:
// it is not state.
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
// deep copies. Running one clone leaves a second clone and the live point
// untouched.
func TestCloneIsolated(t *testing.T) {
	profiles := []*workload.Profile{
		workload.WebSearch(), workload.DataServing(), workload.MediaStreaming(), workload.VMHighMem(),
	}
	build := func() *Cluster {
		cl, err := NewMixedCluster(DefaultConfig(), profiles, 2e9)
		if err != nil {
			t.Fatal(err)
		}
		cl.FastForward(30_000)
		cl.Run(5_000)
		return cl
	}
	// twin follows the source's history without ever meeting a clone.
	src, twin := build(), build()
	ref := src.Clone()
	a, b := src.Clone(), src.Clone()

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

// BenchmarkClone measures one sample task's copy of a warmed live point:
// into a fresh cluster (Clone), and into a reused one (CloneInto), as a
// sweep's sample tasks take it.
func BenchmarkClone(b *testing.B) {
	src := warmedWebServing(b)
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			clSink = src.Clone()
		}
	})
	b.Run("into", func(b *testing.B) {
		buf := src.Clone()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			clSink = src.CloneInto(buf)
		}
	})
}

// TestCloneIntoReusedBuffer: a buffer that last ran another workload, on
// a cluster of another shape and at another frequency, holds after
// CloneInto what a fresh Clone holds, window counters included, and runs
// a warm-up and a measurement window bit-identically to it.
func TestCloneIntoReusedBuffer(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CoresPerCluster = 8
	cfg.LLC.Banks = 8
	buf, err := NewCluster(cfg, workload.VMHighMem(), 0.3e9)
	if err != nil {
		t.Fatal(err)
	}
	buf.FastForward(20_000)
	buf.Run(5_000)
	buf.Measure(5_000)

	src, err := NewMixedCluster(DefaultConfig(), []*workload.Profile{
		workload.WebSearch(), workload.DataServing(), workload.MediaStreaming(), workload.WebServing(),
	}, 2e9)
	if err != nil {
		t.Fatal(err)
	}
	src.FastForward(50_000)
	src.Run(5_000)
	fresh := src.Clone()
	if into := src.CloneInto(buf); into != buf {
		t.Fatal("CloneInto returned another cluster than its destination")
	}
	if !sameState(buf, fresh) {
		t.Fatal("the copy's state differs from a fresh clone's")
	}
	for _, cl := range []*Cluster{fresh, buf} {
		cl.SetFrequency(0.5e9)
		cl.Run(3_000)
	}
	if a, b := fresh.Measure(20_000), buf.Measure(20_000); !reflect.DeepEqual(a, b) {
		t.Fatalf("the copy diverged from a fresh clone:\n%+v\n%+v", b, a)
	}
	if !sameState(buf, fresh) {
		t.Fatal("the copy ended in another state than a fresh clone")
	}
}

// TestCloneIntoSteadyStateAllocs gates a sample task's set-up: copying a
// live point into a cluster that held one before, and attaching the
// live point's tapes, allocates nothing. Nor does the rest of a sample
// task that harvests into a registry: its warm-up and window run and
// HarvestObs. (Measure's Measurement allocates the per-core slice a
// sweep keeps, so the window here is run and reset by hand.)
func TestCloneIntoSteadyStateAllocs(t *testing.T) {
	src := warmedWebServing(t)
	tapes := make([]workload.Tape, src.Cores())
	for i := range tapes {
		src.RecordTape(i, &tapes[i], 1_000, 8<<10)
	}
	buf := src.Clone()
	buf.ReplayTapes(tapes)
	buf.Run(2_000) // the buffer has run, as a pooled one has
	allocs := testing.AllocsPerRun(10, func() {
		src.CloneInto(buf).ReplayTapes(tapes)
	})
	if allocs != 0 {
		t.Fatalf("CloneInto and ReplayTapes allocate %.1f times per sample task, want 0", allocs)
	}

	reg := obs.NewRegistry()
	allocs = testing.AllocsPerRun(10, func() {
		cl := src.CloneInto(buf)
		cl.ReplayTapes(tapes)
		cl.Run(500)
		cl.ResetStats()
		cl.Run(1_000)
		cl.HarvestObs(reg)
	})
	if allocs != 0 {
		t.Fatalf("a sample task that harvests allocates %.1f times, want 0", allocs)
	}
}

// TestReplayTapesMatchesGenerating: a copy replaying tapes recorded from
// its live point measures exactly what a copy generating its streams
// does, whether the tapes end before, inside or after the window.
func TestReplayTapesMatchesGenerating(t *testing.T) {
	src, err := NewMixedCluster(DefaultConfig(), []*workload.Profile{
		workload.WebSearch(), workload.DataServing(), workload.VMLowMem(), workload.WebServing(),
	}, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	src.FastForward(40_000)
	src.Run(5_000)
	run := func(cl *Cluster) [2]Measurement {
		cl.Run(2_000)
		return [2]Measurement{cl.Measure(8_000), cl.Measure(8_000)}
	}
	want := run(src.Clone())
	tapes := make([]workload.Tape, src.Cores())
	buf := src.Clone()
	for _, length := range []int{0, 1, 4_000, 200_000} {
		n := []int{length, length / 2, length, 2 * length}
		for i := range tapes {
			src.RecordTape(i, &tapes[i], n[i], 2*length*workload.TapeMaxBytes)
		}
		cl := src.CloneInto(buf)
		cl.ReplayTapes(tapes)
		if got := run(cl); !reflect.DeepEqual(got, want) {
			t.Fatalf("tapes of %v instructions: replay measured\n%+v\nwant\n%+v", n, got, want)
		}
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
