package sim

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"os"
	"reflect"
	"strings"
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
	if restored.llcReads != orig.llcReads || restored.llcWrites != orig.llcWrites ||
		restored.llcWriteFills != orig.llcWriteFills ||
		restored.dramReads != orig.dramReads || restored.dramWrites != orig.dramWrites {
		t.Fatalf("restore dropped counters: got reads=%d writes=%d fills=%d dr=%d dw=%d",
			restored.llcReads, restored.llcWrites, restored.llcWriteFills,
			restored.dramReads, restored.dramWrites)
	}
	if again := restored.Checkpoint(); !reflect.DeepEqual(ck, again) {
		t.Fatal("re-checkpointing the restored cluster diverged from the original image")
	}
}

func TestCheckpointSurvivesSerialization(t *testing.T) {
	const fp = 0x5eed
	cfg := DefaultConfig()
	orig, err := NewCluster(cfg, workload.MediaStreaming(), 2e9)
	if err != nil {
		t.Fatal(err)
	}
	orig.FastForward(150000)
	orig.Run(10000)
	ck := orig.Checkpoint()

	var buf bytes.Buffer
	if err := ck.SaveSealed(&buf, fp); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSealed(&buf, fp)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreCluster(loaded)
	if err != nil {
		t.Fatal(err)
	}

	a := orig.Measure(20000)
	b := restored.Measure(20000)
	if a.Instructions != b.Instructions || a.DRAM != b.DRAM || a.LLC != b.LLC {
		t.Fatal("round-tripped checkpoint diverged")
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

// sealedTestBytes warms a small cluster and returns its sealed encoding.
func sealedTestBytes(t *testing.T, fp uint64) []byte {
	t.Helper()
	cl, err := NewCluster(DefaultConfig(), workload.WebSearch(), 1e9)
	if err != nil {
		t.Fatal(err)
	}
	cl.FastForward(100000)
	cl.Run(5000)
	var buf bytes.Buffer
	if err := cl.Checkpoint().SaveSealed(&buf, fp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSealedRoundTrip(t *testing.T) {
	const fp = 0xfeedbeefcafe
	raw := sealedTestBytes(t, fp)
	ck, err := LoadSealed(bytes.NewReader(raw), fp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreCluster(ck); err != nil {
		t.Fatalf("restoring round-tripped sealed checkpoint: %v", err)
	}
}

func TestSealedStaleFingerprint(t *testing.T) {
	raw := sealedTestBytes(t, 1)
	_, err := LoadSealed(bytes.NewReader(raw), 2)
	if !errors.Is(err, ErrCheckpointStale) {
		t.Fatalf("fingerprint mismatch should be ErrCheckpointStale, got %v", err)
	}
	if errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatal("a stale file is intact, not corrupt")
	}
}

func TestSealedCorruption(t *testing.T) {
	const fp = 7
	raw := sealedTestBytes(t, fp)
	cases := []struct {
		name   string
		mutate func(b []byte) []byte
	}{
		{"empty", func(b []byte) []byte { return nil }},
		{"short header", func(b []byte) []byte { return b[:10] }},
		{"bad magic", func(b []byte) []byte { b[0] ^= 0xff; return b }},
		{"unknown version", func(b []byte) []byte { b[4] = 0x7f; return b }},
		{"truncated payload", func(b []byte) []byte { return b[:len(b)/2] }},
		{"bit flip in payload", func(b []byte) []byte { b[sealedHdrLen+17] ^= 0x01; return b }},
		{"bit flip in stored CRC", func(b []byte) []byte { b[22] ^= 0x01; return b }},
		{"zero length", func(b []byte) []byte {
			for i := 14; i < 22; i++ {
				b[i] = 0
			}
			return b
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mut := tc.mutate(append([]byte(nil), raw...))
			_, err := LoadSealed(bytes.NewReader(mut), fp)
			if !errors.Is(err, ErrCheckpointCorrupt) {
				t.Fatalf("want ErrCheckpointCorrupt, got %v", err)
			}
		})
	}
}

// TestSealedStaleRequiresIntegrity pins the verification order: a file that
// is both corrupt AND has a mismatched fingerprint must be reported corrupt —
// staleness is only meaningful for provably intact bytes.
func TestSealedStaleRequiresIntegrity(t *testing.T) {
	raw := sealedTestBytes(t, 1)
	raw[len(raw)-1] ^= 0xff
	_, err := LoadSealed(bytes.NewReader(raw), 2)
	if !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("corrupt+stale file must report corruption first, got %v", err)
	}
}

// restorePair warms a cluster running p and restores it twice: from the
// in-memory checkpoint, which carries its generator plans, and through
// SaveSealed/LoadSealed, which builds them again.
func restorePair(t *testing.T, p *workload.Profile) (src, shared, sealed *Cluster) {
	t.Helper()
	const fp = 0x7ab1e5
	src, err := NewCluster(DefaultConfig(), p, 1.5e9)
	if err != nil {
		t.Fatal(err)
	}
	src.FastForward(60000)
	src.Run(5000)
	ck := src.Checkpoint()
	var buf bytes.Buffer
	if err := ck.SaveSealed(&buf, fp); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSealed(&buf, fp)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.plans != nil {
		t.Fatal("a sealed checkpoint must not carry generator plans")
	}
	if shared, err = RestoreCluster(ck); err != nil {
		t.Fatal(err)
	}
	if sealed, err = RestoreCluster(loaded); err != nil {
		t.Fatal(err)
	}
	return src, shared, sealed
}

// TestRestoreSharedTablesMatchesSealed checks that reusing the in-memory
// checkpoint's generator plans, bias tables included, restores the same
// cluster as building them again after a sealed round trip: same
// measurement, same checkpoint (plans compared by content), same sealed
// bytes.
func TestRestoreSharedTablesMatchesSealed(t *testing.T) {
	src, shared, sealed := restorePair(t, workload.WebServing())
	if &shared.plans[0] != &src.plans[0] {
		t.Fatal("in-memory restore built its plans again")
	}
	if &sealed.plans[0] == &src.plans[0] {
		t.Fatal("sealed restore shares the source's plans")
	}
	a, b := shared.Measure(20000), sealed.Measure(20000)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("measurements diverged:\n%+v\n%+v", a, b)
	}
	ca, cb := shared.Checkpoint(), sealed.Checkpoint()
	if !reflect.DeepEqual(ca, cb) {
		t.Fatal("checkpoints after the measurement diverged")
	}
	var ba, bb bytes.Buffer
	if err := ca.SaveSealed(&ba, 1); err != nil {
		t.Fatal(err)
	}
	if err := cb.SaveSealed(&bb, 1); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ba.Bytes(), bb.Bytes()) {
		t.Fatal("sealed bytes diverged")
	}
}

// TestRestoreKeepsEditedProfile warms a cluster on an edited profile that
// keeps web-search's name. The in-memory checkpoint carries its plans, so
// the restored cluster runs the edited profile and continues exactly as
// the source does, not as the registered web-search would.
func TestRestoreKeepsEditedProfile(t *testing.T) {
	p := workload.WebSearch()
	p.LoadFrac = 0.10
	src, shared, _ := restorePair(t, p)
	if a, b := shared.Measure(20000), src.Measure(20000); !reflect.DeepEqual(a, b) {
		t.Fatalf("restored cluster diverged from its source:\n%+v\n%+v", a, b)
	}
}

// BenchmarkRestoreCluster measures one sweep point's restore of a warmed
// web-serving cluster (16,384 static branches per core): "shared" from
// the in-memory checkpoint, which carries its plans' bias tables, "drawn"
// from a sealed round trip, which draws them again.
func BenchmarkRestoreCluster(b *testing.B) {
	src, err := NewCluster(DefaultConfig(), workload.WebServing(), 1.5e9)
	if err != nil {
		b.Fatal(err)
	}
	src.FastForward(20000)
	ck := src.Checkpoint()
	var buf bytes.Buffer
	if err := ck.SaveSealed(&buf, 1); err != nil {
		b.Fatal(err)
	}
	loaded, err := LoadSealed(&buf, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		ck   *Checkpoint
	}{{"shared", ck}, {"drawn", loaded}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := RestoreCluster(c.ck); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

var update = flag.Bool("update", false, "rewrite testdata/sealed.golden")

// TestSealedBytesGolden pins the sealed checkpoint format byte for byte:
// the SHA-256 of SaveSealed for a fixed warmed cluster of one scale-out
// and one VM profile must match testdata/sealed.golden, so checkpoint
// files an earlier build wrote to -ckptdir still load. Regenerate with
// -update only for an intentional format change.
func TestSealedBytesGolden(t *testing.T) {
	var got strings.Builder
	for _, p := range []*workload.Profile{workload.WebSearch(), workload.VMHighMem()} {
		cl, err := NewCluster(DefaultConfig(), p, 1.5e9)
		if err != nil {
			t.Fatal(err)
		}
		cl.FastForward(40000)
		cl.Run(5000)
		var buf bytes.Buffer
		if err := cl.Checkpoint().SaveSealed(&buf, 0x5ea1ed); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "%s %x\n", p.Name, sha256.Sum256(buf.Bytes()))
	}
	const path = "testdata/sealed.golden"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("sealed checkpoint bytes changed:\ngot\n%swant\n%s", got.String(), want)
	}
}
