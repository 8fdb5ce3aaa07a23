package sim

import (
	"reflect"
	"testing"

	"ntcsim/internal/workload"
)

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

	ck := orig.Checkpoint()
	restored, err := RestoreCluster(ck)
	if err != nil {
		t.Fatal(err)
	}

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
// survive the round trip, and re-checkpointing the restored cluster
// must reproduce the original image exactly.
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

	ck := orig.Checkpoint()
	if ck.LLCReads != orig.llcReads || ck.LLCWrites != orig.llcWrites {
		t.Fatalf("checkpoint dropped LLC traffic: image %d/%d, live %d/%d",
			ck.LLCReads, ck.LLCWrites, orig.llcReads, orig.llcWrites)
	}
	restored, err := RestoreCluster(ck)
	if err != nil {
		t.Fatal(err)
	}
	if restored.llcReads != orig.llcReads || restored.llcWrites != orig.llcWrites {
		t.Fatalf("restore dropped counters: got reads=%d writes=%d, want %d/%d",
			restored.llcReads, restored.llcWrites, orig.llcReads, orig.llcWrites)
	}
	if again := restored.Checkpoint(); !reflect.DeepEqual(ck, again) {
		t.Fatal("re-checkpointing the restored cluster diverged from the original image")
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
	ck := orig.Checkpoint()

	restored, err := RestoreCluster(ck)
	if err != nil {
		t.Fatal(err)
	}
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

func TestCheckpointUnknownWorkloadRejected(t *testing.T) {
	cfg := DefaultConfig()
	cl, err := NewCluster(cfg, workload.WebSearch(), 1e9)
	if err != nil {
		t.Fatal(err)
	}
	ck := cl.Checkpoint()
	ck.Profiles[0] = "no-such-workload"
	if _, err := RestoreCluster(ck); err == nil {
		t.Fatal("unknown workload name should be rejected")
	}
}

func TestCheckpointShapeMismatchRejected(t *testing.T) {
	cfg := DefaultConfig()
	cl, err := NewCluster(cfg, workload.WebSearch(), 1e9)
	if err != nil {
		t.Fatal(err)
	}
	ck := cl.Checkpoint()
	ck.Config.CoresPerCluster = 2 // shape no longer matches saved cores
	ck.Profiles = ck.Profiles[:2]
	if _, err := RestoreCluster(ck); err == nil {
		t.Fatal("core-count mismatch should be rejected")
	}
}

// restorePair warms a cluster running p and restores a second one from
// its in-memory checkpoint, which carries its generator plans.
func restorePair(t *testing.T, p *workload.Profile) (src, restored *Cluster) {
	t.Helper()
	src, err := NewCluster(DefaultConfig(), p, 1.5e9)
	if err != nil {
		t.Fatal(err)
	}
	src.FastForward(60000)
	src.Run(5000)
	if restored, err = RestoreCluster(src.Checkpoint()); err != nil {
		t.Fatal(err)
	}
	return src, restored
}

// TestRestoreKeepsEditedProfile warms a cluster on an edited profile that
// keeps web-search's name. The in-memory checkpoint carries its plans, so
// the restored cluster runs the edited profile and continues exactly as
// the source does, not as the registered web-search would.
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

// BenchmarkRestoreCluster measures one sweep point's restore of a warmed
// web-serving cluster (16,384 static branches per core) from the
// in-memory checkpoint, which carries its plans' bias tables.
func BenchmarkRestoreCluster(b *testing.B) {
	src, err := NewCluster(DefaultConfig(), workload.WebServing(), 1.5e9)
	if err != nil {
		b.Fatal(err)
	}
	src.FastForward(20000)
	ck := src.Checkpoint()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RestoreCluster(ck); err != nil {
			b.Fatal(err)
		}
	}
}
