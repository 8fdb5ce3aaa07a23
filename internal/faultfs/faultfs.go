// Package faultfs is the filesystem seam for checkpoint persistence: a
// small FS interface with a passthrough OS implementation, plus a
// deterministic fault injector for tests. The sweep pipeline's robustness
// claims (torn writes never become wrong numbers, corrupt checkpoints are
// quarantined, ENOSPC recovers) are proven by running the real
// checkpoint code against an Injector that simulates those failures —
// no syscall interposition, no wall-clock, no randomness, so the fault
// schedule is exactly reproducible.
package faultfs

import (
	"fmt"
	"io/fs"
	"os"
	"strings"
	"sync"
)

// File is the subset of *os.File the checkpoint code needs.
type File interface {
	Name() string
	Read(p []byte) (int, error)
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

// FS abstracts the filesystem operations of checkpoint persistence. All
// paths are host paths (not fs.FS-rooted); implementations must return
// errors that satisfy errors.Is against fs.ErrNotExist / fs.ErrExist the
// way the os package does, because callers branch on those sentinels.
type FS interface {
	// Open opens an existing file for reading.
	Open(name string) (File, error)
	// CreateTemp creates a new private temp file in dir (os.CreateTemp
	// pattern semantics).
	CreateTemp(dir, pattern string) (File, error)
	// CreateExclusive creates name with O_CREATE|O_EXCL — the building
	// block of lock files. Returns an fs.ErrExist-compatible error when
	// name already exists.
	CreateExclusive(name string) (File, error)
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes a file.
	Remove(name string) error
	// MkdirAll creates a directory tree.
	MkdirAll(path string) error
	// Stat describes a file.
	Stat(name string) (fs.FileInfo, error)
}

// OS is the real filesystem.
var OS FS = osFS{}

type osFS struct{}

func (osFS) Open(name string) (File, error) { return os.Open(name) }

func (osFS) CreateTemp(dir, pattern string) (File, error) { return os.CreateTemp(dir, pattern) }

func (osFS) CreateExclusive(name string) (File, error) {
	return os.OpenFile(name, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(name string) error { return os.Remove(name) }

func (osFS) MkdirAll(path string) error { return os.MkdirAll(path, 0o755) }

func (osFS) Stat(name string) (fs.FileInfo, error) { return os.Stat(name) }

// Op names one FS operation class for fault matching.
type Op string

const (
	OpOpen            Op = "open"
	OpCreateTemp      Op = "create-temp"
	OpCreateExclusive Op = "create-exclusive"
	OpRename          Op = "rename"
	OpRemove          Op = "remove"
	OpMkdirAll        Op = "mkdir-all"
	OpStat            Op = "stat"
	OpRead            Op = "read"
	OpWrite           Op = "write"
	OpSync            Op = "sync"
	OpClose           Op = "close"
)

// Rule describes one injected fault. A rule matches an operation when the
// Op equals and Path is a substring of the operation's path ("" matches
// every path). Matching is counted per rule: the first After matches pass
// through untouched, then the rule fires Count times (Count <= 0 means
// forever). Exactly one of the effect fields is normally set:
//
//   - Err fails the operation with that error. For OpWrite, ShortWrite
//     additionally lets the first ShortWrite bytes through before the
//     failure — a torn write.
//   - Corrupt (with Err nil, OpWrite or OpRead only) silently XOR-flips
//     byte offset CorruptByte of the buffer — data corruption the
//     operation reports as success.
type Rule struct {
	Op          Op
	Path        string
	After       int
	Count       int
	Err         error
	ShortWrite  int
	Corrupt     bool
	CorruptByte int

	matched int
	fired   int
}

// Injector wraps an FS and applies fault rules to matching operations.
// Safe for concurrent use; rule matching is serialized, so "the Nth
// write" is well defined even under concurrency.
type Injector struct {
	base  FS
	mu    sync.Mutex
	rules []*Rule
	calls map[Op]int
}

// NewInjector wraps base (nil selects OS) with the given rules. Rules are
// consulted in order; the first one that matches an operation fires.
func NewInjector(base FS, rules ...*Rule) *Injector {
	if base == nil {
		base = OS
	}
	return &Injector{base: base, rules: rules, calls: map[Op]int{}}
}

// Calls returns how many operations of class op were issued (whether or
// not a fault fired).
func (in *Injector) Calls(op Op) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.calls[op]
}

// fault records the operation and returns the rule that fires for it, if
// any.
func (in *Injector) fault(op Op, path string) *Rule {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.calls[op]++
	for _, r := range in.rules {
		if r.Op != op || !strings.Contains(path, r.Path) {
			continue
		}
		r.matched++
		if r.matched <= r.After {
			continue
		}
		if r.Count > 0 && r.fired >= r.Count {
			continue
		}
		r.fired++
		return r
	}
	return nil
}

func (in *Injector) Open(name string) (File, error) {
	if r := in.fault(OpOpen, name); r != nil {
		return nil, r.opErr(OpOpen, name)
	}
	f, err := in.base.Open(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{f: f, in: in}, nil
}

func (in *Injector) CreateTemp(dir, pattern string) (File, error) {
	if r := in.fault(OpCreateTemp, dir); r != nil {
		return nil, r.opErr(OpCreateTemp, dir)
	}
	f, err := in.base.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &faultFile{f: f, in: in}, nil
}

func (in *Injector) CreateExclusive(name string) (File, error) {
	if r := in.fault(OpCreateExclusive, name); r != nil {
		return nil, r.opErr(OpCreateExclusive, name)
	}
	f, err := in.base.CreateExclusive(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{f: f, in: in}, nil
}

func (in *Injector) Rename(oldpath, newpath string) error {
	if r := in.fault(OpRename, newpath); r != nil {
		return r.opErr(OpRename, newpath)
	}
	return in.base.Rename(oldpath, newpath)
}

func (in *Injector) Remove(name string) error {
	if r := in.fault(OpRemove, name); r != nil {
		return r.opErr(OpRemove, name)
	}
	return in.base.Remove(name)
}

func (in *Injector) MkdirAll(path string) error {
	if r := in.fault(OpMkdirAll, path); r != nil {
		return r.opErr(OpMkdirAll, path)
	}
	return in.base.MkdirAll(path)
}

func (in *Injector) Stat(name string) (fs.FileInfo, error) {
	if r := in.fault(OpStat, name); r != nil {
		return nil, r.opErr(OpStat, name)
	}
	return in.base.Stat(name)
}

// opErr labels the injected error with the operation and path so test
// failures read like real syscall errors.
func (r *Rule) opErr(op Op, path string) error {
	return fmt.Errorf("faultfs: injected %s %s: %w", op, path, r.Err)
}

// faultFile applies read/write/sync/close rules of the owning injector to
// one open file.
type faultFile struct {
	f  File
	in *Injector
}

func (ff *faultFile) Name() string { return ff.f.Name() }

func (ff *faultFile) Read(p []byte) (int, error) {
	if r := ff.in.fault(OpRead, ff.f.Name()); r != nil {
		if r.Err != nil {
			return 0, r.opErr(OpRead, ff.f.Name())
		}
		n, err := ff.f.Read(p)
		if r.Corrupt && r.CorruptByte < n {
			p[r.CorruptByte] ^= 0xFF
		}
		return n, err
	}
	return ff.f.Read(p)
}

func (ff *faultFile) Write(p []byte) (int, error) {
	if r := ff.in.fault(OpWrite, ff.f.Name()); r != nil {
		if r.Err != nil {
			n := 0
			if r.ShortWrite > 0 {
				short := r.ShortWrite
				if short > len(p) {
					short = len(p)
				}
				n, _ = ff.f.Write(p[:short])
			}
			return n, r.opErr(OpWrite, ff.f.Name())
		}
		if r.Corrupt && r.CorruptByte < len(p) {
			q := append([]byte(nil), p...)
			q[r.CorruptByte] ^= 0xFF
			n, err := ff.f.Write(q)
			return n, err
		}
	}
	return ff.f.Write(p)
}

func (ff *faultFile) Sync() error {
	if r := ff.in.fault(OpSync, ff.f.Name()); r != nil {
		return r.opErr(OpSync, ff.f.Name())
	}
	return ff.f.Sync()
}

func (ff *faultFile) Close() error {
	if r := ff.in.fault(OpClose, ff.f.Name()); r != nil {
		ff.f.Close()
		return r.opErr(OpClose, ff.f.Name())
	}
	return ff.f.Close()
}
