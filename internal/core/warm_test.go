package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"ntcsim/internal/cpu"
	"ntcsim/internal/faultfs"
	"ntcsim/internal/obs"
	"ntcsim/internal/workload"
)

// warmExplorer returns a cheap explorer for checkpoint-robustness tests:
// the warmup is short (these tests pay it repeatedly) and warnings are
// captured for assertions.
func warmExplorer(t *testing.T, dir string) (*Explorer, *warnLog) {
	t.Helper()
	e, err := NewExplorer()
	if err != nil {
		t.Fatal(err)
	}
	e.WarmInstr = 200_000
	e.SettleCycles = 5_000
	e.CheckpointDir = dir
	w := &warnLog{}
	e.Warnf = w.add
	return e, w
}

type warnLog struct {
	mu    sync.Mutex
	lines []string
}

func (w *warnLog) add(format string, args ...any) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.lines = append(w.lines, fmt.Sprintf(format, args...))
}

func (w *warnLog) contains(sub string) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, l := range w.lines {
		if strings.Contains(l, sub) {
			return true
		}
	}
	return false
}

var warmFreqs = []float64{0.5e9, 2.0e9}

// requireIdentical asserts two sweeps are bit-identical — the robustness
// contract: recovery paths may cost time, never correctness.
func requireIdentical(t *testing.T, a, b *Sweep) {
	t.Helper()
	if a.BaselineUIPS != b.BaselineUIPS {
		t.Fatalf("baselines differ: %v vs %v", a.BaselineUIPS, b.BaselineUIPS)
	}
	if len(a.Points) != len(b.Points) {
		t.Fatalf("point counts differ: %d vs %d", len(a.Points), len(b.Points))
	}
	for i := range a.Points {
		if a.Points[i] != b.Points[i] {
			t.Fatalf("point %d differs:\n  %+v\n  %+v", i, a.Points[i], b.Points[i])
		}
	}
}

func ckptFiles(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	return files
}

func TestFingerprintSensitivity(t *testing.T) {
	e, _ := warmExplorer(t, t.TempDir())
	p := workload.WebSearch()
	base, err := e.checkpointFingerprint(p)
	if err != nil {
		t.Fatal(err)
	}
	again, err := e.checkpointFingerprint(workload.WebSearch())
	if err != nil {
		t.Fatal(err)
	}
	if base != again {
		t.Fatal("identical inputs must fingerprint identically")
	}

	// Same Name, different parameters: the bug the fingerprint fixes.
	edited := *workload.WebSearch()
	edited.HotFrac *= 1.01
	efp, err := e.checkpointFingerprint(&edited)
	if err != nil {
		t.Fatal(err)
	}
	if efp == base {
		t.Fatal("edited profile with unchanged Name must change the fingerprint")
	}

	mutations := []struct {
		name   string
		mutate func(e *Explorer)
	}{
		{"seed", func(e *Explorer) { e.Sim.Seed++ }},
		{"warmup length", func(e *Explorer) { e.WarmInstr++ }},
		{"settle cycles", func(e *Explorer) { e.SettleCycles++ }},
		{"cores per cluster", func(e *Explorer) { e.Sim.CoresPerCluster *= 2 }},
		{"core ports (pointer)", func(e *Explorer) { e.Sim.Core.Ports = cpu.A57Ports() }},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			e2, _ := warmExplorer(t, t.TempDir())
			m.mutate(e2)
			fp, err := e2.checkpointFingerprint(p)
			if err != nil {
				t.Fatal(err)
			}
			if fp == base {
				t.Fatalf("changing %s must change the fingerprint", m.name)
			}
		})
	}
}

// TestCacheKeyedByProfileParams is the regression test for the original
// cache-key bug: the checkpoint cache was keyed by profile Name alone, so
// an edited profile silently restored the stale warmed state of the old
// parameters. With fingerprint keying the two configurations get distinct
// files and the edited profile's results match an uncached run exactly.
func TestCacheKeyedByProfileParams(t *testing.T) {
	dir := t.TempDir()
	e1, _ := warmExplorer(t, dir)
	if _, err := e1.Sweep(context.Background(), workload.WebSearch(), warmFreqs); err != nil {
		t.Fatal(err)
	}
	if n := len(ckptFiles(t, dir)); n != 1 {
		t.Fatalf("first sweep should leave 1 checkpoint, found %d", n)
	}

	edited := *workload.WebSearch()
	edited.HotFrac *= 1.05
	edited.StreamFrac *= 0.95

	e2, _ := warmExplorer(t, dir)
	cached, err := e2.Sweep(context.Background(), &edited, warmFreqs)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(ckptFiles(t, dir)); n != 2 {
		t.Fatalf("edited profile must get its own checkpoint (same Name, new fingerprint); found %d files", n)
	}

	e3, _ := warmExplorer(t, "") // no cache at all
	uncached, err := e3.Sweep(context.Background(), &edited, warmFreqs)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, cached, uncached)
}

func TestCorruptCheckpointQuarantinedAndRewarmed(t *testing.T) {
	dir := t.TempDir()
	e1, _ := warmExplorer(t, dir)
	clean, err := e1.Sweep(context.Background(), workload.WebSearch(), warmFreqs)
	if err != nil {
		t.Fatal(err)
	}
	path := ckptFiles(t, dir)[0]

	corruptions := []struct {
		name   string
		mutate func(t *testing.T, raw []byte) []byte
	}{
		{"bit flip", func(t *testing.T, raw []byte) []byte {
			raw[len(raw)/2] ^= 0x01
			return raw
		}},
		{"truncation", func(t *testing.T, raw []byte) []byte {
			return raw[:16]
		}},
		{"zero-length file", func(t *testing.T, raw []byte) []byte {
			return nil
		}},
	}
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			if err := os.WriteFile(path, tc.mutate(t, append([]byte(nil), pristine...)), 0o644); err != nil {
				t.Fatal(err)
			}
			os.Remove(path + ".corrupt")

			e2, warns := warmExplorer(t, dir)
			got, err := e2.Sweep(context.Background(), workload.WebSearch(), warmFreqs)
			if err != nil {
				t.Fatalf("corruption must recover, not fail: %v", err)
			}
			requireIdentical(t, clean, got)
			if _, err := os.Stat(path + ".corrupt"); err != nil {
				t.Fatalf("corrupt file should be quarantined: %v", err)
			}
			if !warns.contains("quarantined") {
				t.Fatalf("corruption must be surfaced, warnings: %v", warns.lines)
			}
			// The re-warm must leave a fresh, loadable checkpoint behind.
			if got, err := os.ReadFile(path); err != nil || len(got) == 0 {
				t.Fatalf("re-warm should rewrite the checkpoint: %v", err)
			}
		})
	}
}

func TestStaleFingerprintRewarmsWithoutQuarantine(t *testing.T) {
	dir := t.TempDir()
	e1, _ := warmExplorer(t, dir)
	if _, err := e1.Sweep(context.Background(), workload.WebSearch(), warmFreqs); err != nil {
		t.Fatal(err)
	}
	src := ckptFiles(t, dir)[0]

	// A different configuration, with the old configuration's file copied
	// by hand onto the name the new configuration expects: the filename
	// matches, the sealed header does not.
	e2, warns := warmExplorer(t, dir)
	e2.WarmInstr += 50_000
	fp2, err := e2.checkpointFingerprint(workload.WebSearch())
	if err != nil {
		t.Fatal(err)
	}
	dst := filepath.Join(dir, fmt.Sprintf("%s-%016x.ckpt", workload.WebSearch().Name, fp2))
	raw, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	cached, err := e2.Sweep(context.Background(), workload.WebSearch(), warmFreqs)
	if err != nil {
		t.Fatal(err)
	}
	if !warns.contains("stale") {
		t.Fatalf("stale checkpoint must be surfaced, warnings: %v", warns.lines)
	}
	if _, err := os.Stat(dst + ".corrupt"); err == nil {
		t.Fatal("a stale file is intact — it must not be quarantined as corrupt")
	}

	e3, _ := warmExplorer(t, "")
	e3.WarmInstr = e2.WarmInstr
	uncached, err := e3.Sweep(context.Background(), workload.WebSearch(), warmFreqs)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, cached, uncached)
}

func TestSaveFailureRecoversUncached(t *testing.T) {
	enospc := errors.New("no space left on device")
	cases := []struct {
		name string
		rule *faultfs.Rule
	}{
		{"enospc on write", &faultfs.Rule{Op: faultfs.OpWrite, Path: ".ckpt", Err: enospc}},
		{"torn write", &faultfs.Rule{Op: faultfs.OpWrite, Path: ".ckpt", Err: enospc, ShortWrite: 10}},
		{"sync failure", &faultfs.Rule{Op: faultfs.OpSync, Path: ".ckpt", Err: enospc}},
		{"temp creation failure", &faultfs.Rule{Op: faultfs.OpCreateTemp, Err: enospc}},
		{"rename failure", &faultfs.Rule{Op: faultfs.OpRename, Path: ".ckpt", Err: enospc}},
	}
	e0, _ := warmExplorer(t, "")
	clean, err := e0.Sweep(context.Background(), workload.WebSearch(), warmFreqs)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			e, warns := warmExplorer(t, dir)
			e.FS = faultfs.NewInjector(nil, tc.rule)
			got, err := e.Sweep(context.Background(), workload.WebSearch(), warmFreqs)
			if err != nil {
				t.Fatalf("a failed checkpoint save must not fail the sweep: %v", err)
			}
			requireIdentical(t, clean, got)
			if !warns.contains("continuing uncached") {
				t.Fatalf("failed save must be surfaced, warnings: %v", warns.lines)
			}
			// The cardinal rule of atomic persistence: no partial .ckpt may
			// ever appear, and failed writes must not leak temp files.
			if files := ckptFiles(t, dir); len(files) != 0 {
				t.Fatalf("failed save left checkpoint files: %v", files)
			}
			leftovers, _ := filepath.Glob(filepath.Join(dir, "*.tmp*"))
			if len(leftovers) != 0 {
				t.Fatalf("failed save leaked temp files: %v", leftovers)
			}
		})
	}
}

func TestSilentWriteCorruptionCaughtAtLoad(t *testing.T) {
	dir := t.TempDir()
	e1, _ := warmExplorer(t, dir)
	// The second write of a save is the gob payload (the first is the
	// 30-byte header); flip one byte of it silently — the save reports
	// success and the corrupt file lands in the cache.
	e1.FS = faultfs.NewInjector(nil, &faultfs.Rule{
		Op: faultfs.OpWrite, Path: ".ckpt", After: 1, Count: 1,
		Corrupt: true, CorruptByte: 100,
	})
	first, err := e1.Sweep(context.Background(), workload.WebSearch(), warmFreqs)
	if err != nil {
		t.Fatal(err)
	}
	path := ckptFiles(t, dir)[0]

	// The next run must catch the corruption via CRC, quarantine, re-warm
	// and still produce identical numbers.
	e2, warns := warmExplorer(t, dir)
	second, err := e2.Sweep(context.Background(), workload.WebSearch(), warmFreqs)
	if err != nil {
		t.Fatalf("CRC-detected corruption must recover: %v", err)
	}
	requireIdentical(t, first, second)
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Fatalf("silently corrupted checkpoint should be quarantined: %v", err)
	}
	if !warns.contains("quarantined") {
		t.Fatalf("warnings: %v", warns.lines)
	}
}

func TestQuarantineFailureSurfacesError(t *testing.T) {
	dir := t.TempDir()
	e1, _ := warmExplorer(t, dir)
	if _, err := e1.Sweep(context.Background(), workload.WebSearch(), warmFreqs); err != nil {
		t.Fatal(err)
	}
	path := ckptFiles(t, dir)[0]
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	e2, _ := warmExplorer(t, dir)
	e2.FS = faultfs.NewInjector(nil, &faultfs.Rule{
		Op: faultfs.OpRename, Path: ".corrupt", Err: errors.New("read-only filesystem"),
	})
	_, err = e2.Sweep(context.Background(), workload.WebSearch(), warmFreqs)
	if err == nil {
		t.Fatal("an unquarantinable corrupt checkpoint must surface an error")
	}
	if !strings.Contains(err.Error(), "core: quarantining corrupt checkpoint") {
		t.Fatalf("err = %v", err)
	}
}

func TestConcurrentSweepsSingleFlightWarmup(t *testing.T) {
	dir := t.TempDir()
	results := make([]*Sweep, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		e, _ := warmExplorer(t, dir)
		e.warmLockPoll = time.Millisecond
		wg.Add(1)
		go func(i int, e *Explorer) {
			defer wg.Done()
			results[i], errs[i] = e.Sweep(context.Background(), workload.WebSearch(), warmFreqs)
		}(i, e)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("sweep %d: %v", i, err)
		}
	}
	requireIdentical(t, results[0], results[1])
	if n := len(ckptFiles(t, dir)); n != 1 {
		t.Fatalf("concurrent sweeps of one configuration should share one checkpoint, found %d", n)
	}
	if locks, _ := filepath.Glob(filepath.Join(dir, "*.lock")); len(locks) != 0 {
		t.Fatalf("lock files leaked: %v", locks)
	}
}

func TestStaleWarmupLockFallsBack(t *testing.T) {
	dir := t.TempDir()
	e, warns := warmExplorer(t, dir)
	e.warmLockPoll = time.Millisecond
	e.warmLockAttempts = 3
	fp, err := e.checkpointFingerprint(workload.WebSearch())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%016x.ckpt", workload.WebSearch().Name, fp))
	// A lock with no living owner: the process that created it crashed.
	if err := os.WriteFile(path+".lock", nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Sweep(context.Background(), workload.WebSearch(), warmFreqs); err != nil {
		t.Fatalf("a stale lock must not hang or fail the sweep: %v", err)
	}
	if !warns.contains("stale lock") {
		t.Fatalf("stale lock must be surfaced, warnings: %v", warns.lines)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("sweep should still write the checkpoint: %v", err)
	}
}

func TestSweepManyWithCheckpointDirBitIdentical(t *testing.T) {
	// SweepMany fans workloads across workers that race on the shared
	// checkpoint directory: the first run populates it concurrently (cold
	// cache + single-flight locks), the second restores from it serially.
	// Both must match an entirely uncached run bit for bit.
	profiles := []*workload.Profile{workload.WebSearch(), workload.MediaStreaming()}

	e0, _ := warmExplorer(t, "")
	uncached, err := e0.SweepMany(context.Background(), profiles, warmFreqs)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	cold, _ := warmExplorer(t, dir)
	cold.Jobs = 4
	cold.warmLockPoll = time.Millisecond
	coldRes, err := cold.SweepMany(context.Background(), profiles, warmFreqs)
	if err != nil {
		t.Fatal(err)
	}
	warm, _ := warmExplorer(t, dir)
	warm.Jobs = 1
	warmRes, err := warm.SweepMany(context.Background(), profiles, warmFreqs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range profiles {
		requireIdentical(t, uncached[i], coldRes[i])
		requireIdentical(t, uncached[i], warmRes[i])
	}
	if n := len(ckptFiles(t, dir)); n != len(profiles) {
		t.Fatalf("expected one checkpoint per profile, found %d", n)
	}
}

func TestSweepManyDuplicateProfilesRejected(t *testing.T) {
	e, _ := warmExplorer(t, t.TempDir())
	_, err := e.SweepMany(context.Background(), []*workload.Profile{workload.WebSearch(), workload.WebSearch()}, warmFreqs)
	if err == nil || !strings.Contains(err.Error(), "duplicate profile") {
		t.Fatalf("duplicate profiles with CheckpointDir must be rejected, got %v", err)
	}
}

func TestSweepStopsBetweenPoints(t *testing.T) {
	ctx, cancel := context.WithCancelCause(context.Background())
	cause := errors.New("SIGINT")
	completed := 0
	e, _ := warmExplorer(t, "")
	e.Jobs = 1
	e.Progress = obs.NewProgressFunc(func(int, int, string, time.Duration) {
		completed++
		cancel(cause) // arrives after point 0; takes effect at the boundary
	})
	_, err := e.Sweep(ctx, workload.WebSearch(), warmFreqs)
	if !errors.Is(err, cause) {
		t.Fatalf("cancellation cause must propagate out of the sweep, got %v", err)
	}
	if completed != 1 {
		t.Fatalf("sweep should stop at the next point boundary; ran %d points", completed)
	}
}

func TestWarmupHonorsCancellation(t *testing.T) {
	dir := t.TempDir()
	e, _ := warmExplorer(t, dir)
	e.warmLockPoll = 10 * time.Millisecond
	fp, err := e.checkpointFingerprint(workload.WebSearch())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%016x.ckpt", workload.WebSearch().Name, fp))
	if err := os.WriteFile(path+".lock", nil, 0o644); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	cause := errors.New("shutdown")
	cancel(cause)
	if _, err := e.Sweep(ctx, workload.WebSearch(), warmFreqs); !errors.Is(err, cause) {
		t.Fatalf("a sweep waiting on the warmup lock must honor cancellation, got %v", err)
	}
}

// TestRenamedProfileSweeps sweeps a renamed and an edited copy of
// web-search, neither of which the registry holds under its name. The
// in-memory checkpoint carries each profile itself and a sealed one is
// bound to it, so every sweep runs without a warning, and one that
// restores from the checkpoint directory matches an uncached one exactly.
func TestRenamedProfileSweeps(t *testing.T) {
	renamed, edited := workload.WebSearch(), workload.WebSearch()
	renamed.Name, edited.LoadFrac = "my-search", 0.10
	for _, p := range []*workload.Profile{renamed, edited} {
		dir := t.TempDir()
		var sweeps []*Sweep
		for _, d := range []string{"", dir, dir} { // uncached, warm and save, restore
			e, w := warmExplorer(t, d)
			s, err := e.Sweep(context.Background(), p, warmFreqs)
			if err != nil {
				t.Fatalf("%s: %v", p.Name, err)
			}
			if len(w.lines) != 0 {
				t.Fatalf("%s: warnings %q", p.Name, w.lines)
			}
			sweeps = append(sweeps, s)
		}
		if n := len(ckptFiles(t, dir)); n != 1 {
			t.Fatalf("%s: %d checkpoint files, want 1", p.Name, n)
		}
		requireIdentical(t, sweeps[0], sweeps[1])
		requireIdentical(t, sweeps[0], sweeps[2])
	}
}
