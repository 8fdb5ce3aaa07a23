package core

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"time"

	"ntcsim/internal/faultfs"
	"ntcsim/internal/qos"
	"ntcsim/internal/sim"
	"ntcsim/internal/workload"
)

// Checkpoint persistence for warmed clusters. The cache must never turn a
// filesystem failure into a wrong number, so every path here resolves to
// one of three outcomes: restore a verified checkpoint, re-warm from
// scratch (deterministic, hence always correct, merely slower), or return
// a "core: ..." error. The on-disk format is sim's sealed checkpoint
// (magic + version + CRC64 + config fingerprint); files are keyed by
// profile name plus fingerprint, written via private-temp + fsync +
// atomic rename, and warmed once per configuration across concurrent
// processes through a best-effort lock file.

// warmedCluster returns a cluster for profile p at the 2GHz baseline
// frequency with warmed microarchitectural state, restoring a cached
// checkpoint when CheckpointDir is configured and a verified one exists,
// and saving one after a fresh warmup.
func (e *Explorer) warmedCluster(ctx context.Context, p *workload.Profile) (*sim.Cluster, error) {
	if e.CheckpointDir == "" {
		return e.warmFresh(p)
	}
	fsys := e.fs()
	fp, err := e.checkpointFingerprint(p)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(e.CheckpointDir, fmt.Sprintf("%s-%016x.ckpt", p.Name, fp))

	if cl, err := e.loadOrQuarantine(fsys, path, fp, p); err != nil || cl != nil {
		return cl, err
	}

	// Single-flight warmup: concurrent sweeps (goroutines of one process,
	// or separate processes sharing -ckptdir) elect one warmer per
	// checkpoint via an exclusive lock file; the rest wait and restore.
	unlock, err := e.lockWarm(ctx, fsys, path)
	if err != nil {
		return nil, err
	}
	if unlock != nil {
		defer unlock()
	}

	// Re-check after acquiring (or giving up on) the lock: the previous
	// holder may have completed the warmup while we waited.
	if cl, err := e.loadOrQuarantine(fsys, path, fp, p); err != nil || cl != nil {
		return cl, err
	}

	cl, err := e.warmFresh(p)
	if err != nil {
		return nil, err
	}
	if err := saveClusterCheckpoint(fsys, cl, path, fp); err != nil {
		// A failed save is recoverable: the warmed cluster is in hand and
		// results do not depend on the cache. Surface the fault and run
		// uncached rather than abort a long campaign over a full disk.
		e.warnf("core: saving checkpoint %s failed (continuing uncached): %v", path, err)
	}
	return cl, nil
}

// warmFresh builds and warms a cluster for p at the baseline frequency.
func (e *Explorer) warmFresh(p *workload.Profile) (*sim.Cluster, error) {
	cl, err := sim.NewCluster(e.Platform.Cluster, p, qos.BaselineFreqHz)
	if err != nil {
		return nil, err
	}
	cl.FastForward(e.WarmInstr)
	cl.Run(e.SettleCycles)
	return cl, nil
}

// loadOrQuarantine attempts to restore the checkpoint at path onto p.
// Outcomes:
//
//   - (cl, nil): verified hit.
//   - (nil, nil): cache miss — the file does not exist, is stale (written
//     by a different configuration), or was corrupt and has been
//     quarantined to path+".corrupt"; the caller re-warms. Only the
//     missing-file case is silent; staleness and corruption are surfaced
//     through Warnf.
//   - (nil, err): the quarantine bookkeeping itself failed — the corrupt
//     file could not be moved aside, so silently re-warming would rewrite
//     over evidence and retry the same failure forever.
func (e *Explorer) loadOrQuarantine(fsys faultfs.FS, path string, fp uint64, p *workload.Profile) (*sim.Cluster, error) {
	cl, err := loadClusterCheckpoint(fsys, path, fp, p)
	switch {
	case err == nil:
		return cl, nil
	case errors.Is(err, fs.ErrNotExist):
		return nil, nil
	case errors.Is(err, sim.ErrCheckpointStale):
		// Defense in depth: the fingerprint keys the file name, so a stale
		// header means the file was copied or renamed by hand. Never
		// restore it; the re-warm writes a correctly keyed file.
		e.warnf("core: checkpoint %s is stale (config fingerprint mismatch); re-warming: %v", path, err)
		return nil, nil
	default:
		q := path + ".corrupt"
		if qerr := fsys.Rename(path, q); qerr != nil && !errors.Is(qerr, fs.ErrNotExist) {
			return nil, fmt.Errorf("core: quarantining corrupt checkpoint %s: %v (load error: %w)", path, qerr, err)
		}
		e.warnf("core: corrupt checkpoint quarantined to %s; re-warming: %v", q, err)
		return nil, nil
	}
}

// lockWarm serializes warmup across sweeps sharing a checkpoint
// directory. The winner creates path+".lock" exclusively and returns an
// unlock func; losers poll until the lock clears (then acquire it and let
// the caller's re-load find the finished checkpoint) or the wait budget
// runs out. On a stale lock (crashed holder) or an unusable lock file the
// warmup proceeds unlocked — the deterministic warmup plus atomic rename
// make a duplicate warmup wasted work, never a wrong result — and
// returns a nil unlock.
func (e *Explorer) lockWarm(ctx context.Context, fsys faultfs.FS, path string) (func(), error) {
	lockPath := path + ".lock"
	poll := e.warmLockPoll
	if poll <= 0 {
		poll = 100 * time.Millisecond
	}
	attempts := e.warmLockAttempts
	if attempts <= 0 {
		attempts = 600 // ~1 minute at the default poll interval
	}
	for i := 0; ; i++ {
		lf, err := fsys.CreateExclusive(lockPath)
		if err == nil {
			lf.Close()
			return func() { _ = fsys.Remove(lockPath) }, nil
		}
		if !errors.Is(err, fs.ErrExist) {
			e.warnf("core: cannot create warmup lock %s (continuing unlocked): %v", lockPath, err)
			return nil, nil
		}
		if i >= attempts {
			e.warnf("core: warmup lock %s still held after %d polls (stale lock? continuing unlocked)",
				lockPath, attempts)
			return nil, nil
		}
		select {
		case <-ctx.Done():
			return nil, context.Cause(ctx)
		case <-time.After(poll): //ntclint:allow wallclock lock back-off pacing only; never reaches results
		}
	}
}

// loadClusterCheckpoint restores a sealed checkpoint onto p, verifying
// integrity and the config fingerprint. The fingerprint covers every
// parameter of p, so a verified file was taken with p even when p is
// renamed or edited, and LoadSealed binds the checkpoint to p itself. A
// CRC-valid file that nevertheless fails to restore (shape mismatch,
// other workload) is reported as corrupt: the fingerprint covers every
// input that shapes the cluster, so a verified file can only fail restore
// if its contents lie.
func loadClusterCheckpoint(fsys faultfs.FS, path string, fp uint64, p *workload.Profile) (*sim.Cluster, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	ck, err := sim.LoadSealed(f, fp, p)
	if err != nil {
		return nil, err
	}
	cl, err := sim.RestoreCluster(ck)
	if err != nil {
		return nil, fmt.Errorf("%w: restoring: %v", sim.ErrCheckpointCorrupt, err)
	}
	return cl, nil
}

// saveClusterCheckpoint writes a sealed checkpoint via a private temp
// file, fsync, and atomic rename, so concurrent sweeps sharing the
// directory can never observe a torn file and a crash mid-write leaves at
// most an orphaned .tmp, never a partial .ckpt.
func saveClusterCheckpoint(fsys faultfs.FS, cl *sim.Cluster, path string, fp uint64) error {
	if err := fsys.MkdirAll(filepath.Dir(path)); err != nil {
		return err
	}
	f, err := fsys.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if err := cl.Checkpoint().SaveSealed(f, fp); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return err
	}
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp)
		return err
	}
	return nil
}

// fs returns the filesystem seam: the injected one in tests, the real OS
// filesystem otherwise.
func (e *Explorer) fs() faultfs.FS {
	if e.FS != nil {
		return e.FS
	}
	return faultfs.OS
}

// warnf reports a recovered fault through the Warnf hook, if any.
func (e *Explorer) warnf(format string, args ...any) {
	if e.Warnf != nil {
		e.Warnf(format, args...)
	}
}
