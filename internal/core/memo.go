package core

import (
	"bytes"
	"sync"

	"ntcsim/internal/obs"
	"ntcsim/internal/obs/timeseries"
	"ntcsim/internal/sampling"
	"ntcsim/internal/workload"
)

// maxMemoEntries is the sweep memo's capacity. An entry holds one
// sweep's points, its counter-class metrics snapshot and its telemetry
// samples: a few tens of KB, so the bound keeps a long-running daemon's
// memo under a few MB.
const maxMemoEntries = 64

// SweepMemo is an in-process cache of finished sweeps, shared by every
// explorer that holds it (the experiments of one CLI process, the jobs of
// one daemon). A sweep's result is a pure function of its inputs, so a
// second sweep of the same inputs can be answered from the first one.
//
// An entry is found by a hash of every result-affecting input and then
// confirmed by exact comparison against the entry's private copy of those
// inputs (see sweepKey). The memo holds at most a fixed number of entries
// and evicts the oldest first. There is no single-flight: concurrent
// misses of one key both compute, and their results are identical.
type SweepMemo struct {
	max int

	mu           sync.Mutex
	entries      []*memoEntry // insertion order, oldest first
	hits, misses uint64
}

// memoEntry is one finished sweep. Nothing in it is ever handed out: a
// hit returns and replays copies.
type memoEntry struct {
	hash uint64
	key  []byte

	baselineUIPS float64
	points       []Point
	// metrics is the counter-class snapshot of what the sweep harvested;
	// nil when it ran without Obs.
	metrics *obs.Snapshot
	samples []timeseries.Sample
}

// NewSweepMemo returns an empty memo holding at most maxMemoEntries
// sweeps.
func NewSweepMemo() *SweepMemo {
	return &SweepMemo{max: maxMemoEntries}
}

// Stats reports the lookups answered from the memo, the lookups that had
// to compute, and the entries currently held.
func (m *SweepMemo) Stats() (hits, misses uint64, entries int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.hits, m.misses, len(m.entries)
}

// lookup returns the entry for key, or nil. An entry computed without
// Obs does not serve a caller that needs metrics.
func (m *SweepMemo) lookup(hash uint64, key []byte, needObs bool) *memoEntry {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, en := range m.entries {
		if en.hash == hash && bytes.Equal(en.key, key) && (en.metrics != nil || !needObs) {
			m.hits++
			return en
		}
	}
	m.misses++
	return nil
}

// store adds a finished sweep. An entry for the same key is replaced
// unless it carries metrics and the new one does not; otherwise the
// oldest entries are evicted down to the bound.
func (m *SweepMemo) store(en *memoEntry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, old := range m.entries {
		if old.hash == en.hash && bytes.Equal(old.key, en.key) {
			if old.metrics == nil || en.metrics != nil {
				m.entries[i] = en
			}
			return
		}
	}
	if len(m.entries) >= m.max {
		n := copy(m.entries, m.entries[len(m.entries)-m.max+1:])
		clear(m.entries[n:])
		m.entries = m.entries[:n]
	}
	m.entries = append(m.entries, en)
}

// sweepKey encodes every input a sweep's result depends on: the profile
// value, the simulation config (seed included), the whole platform, the
// sampling configuration, the warmup and settle lengths and the sorted
// frequency list. The encoding is canonical and follows pointers and
// unexported fields, so it is itself the entry's private deep copy of
// those inputs: equal bytes mean equal inputs, and a later in-place edit
// of a caller's model cannot reach it. ok is false when an input holds
// something the encoder does not compare by value (a non-nil func, a
// map, an interface, a channel); such sweeps bypass the memo.
func (e *Explorer) sweepKey(p *workload.Profile, cfg sampling.Config, freqs []float64) (hash uint64, key []byte, ok bool) {
	return encodeKey(p, e.Sim, e.Platform, cfg, e.WarmInstr, e.SettleCycles, freqs)
}
