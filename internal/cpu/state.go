package cpu

import (
	"fmt"

	"ntcsim/internal/cache"
	"ntcsim/internal/rng"
	"ntcsim/internal/workload"
)

// MissState is an exported in-flight L1D miss, for checkpointing.
type MissState struct {
	Line     uint64
	Complete int64
}

// CoreState is the complete dynamic state of a Core, sufficient to resume
// an identical simulation on a core built with the same configuration and
// construction parameters (the SMARTS "warmed checkpoint").
type CoreState struct {
	FreqHz float64

	Seq           uint64
	DispatchCycle int64
	DispatchCnt   int
	FrontendReady int64
	CommitCycle   int64
	CommitCnt     int
	CompleteRing  []int64
	CommitRing    []int64
	LastILine     uint64

	SlotCycle []int64
	SlotUsed  []uint8

	Misses   []MissState
	PFRecent []uint64
	PFIdx    int

	CycleAtReset int64
	Stats        Stats

	L1I       [][]cache.LineState
	L1D       [][]cache.LineState
	L1IStats  cache.Stats
	L1DStats  cache.Stats
	Predictor []uint8

	Gen workload.GeneratorState
}

// State captures the core's dynamic state.
func (c *Core) State() CoreState {
	st := CoreState{
		FreqHz:        c.freqHz,
		Seq:           c.seq,
		DispatchCycle: c.dispatchCycle,
		DispatchCnt:   c.dispatchCnt,
		FrontendReady: c.frontendReady,
		CommitCycle:   c.commitCycle,
		CommitCnt:     c.commitCnt,
		CompleteRing:  append([]int64(nil), c.completeRing...),
		CommitRing:    append([]int64(nil), c.commitRing...),
		LastILine:     c.lastILine,
		SlotCycle:     append([]int64(nil), c.slotCycle[:]...),
		SlotUsed:      flattenSlots(&c.slotUsed),
		PFRecent:      append([]uint64(nil), c.pf.recent[:]...),
		PFIdx:         c.pf.idx,
		CycleAtReset:  c.cycleAtReset,
		Stats:         c.stats,
		L1I:           c.l1i.Snapshot(),
		L1D:           c.l1d.Snapshot(),
		L1IStats:      c.l1i.Stats(),
		L1DStats:      c.l1d.Stats(),
		Predictor:     append([]uint8(nil), c.bpred.counters...),
		Gen:           c.gen.State(),
	}
	for _, m := range c.misses {
		st.Misses = append(st.Misses, MissState{Line: m.line, Complete: m.complete})
	}
	return st
}

// Restore loads a state captured with State on an identically configured
// core.
func (c *Core) Restore(st CoreState) error {
	if len(st.CompleteRing) != len(c.completeRing) || len(st.CommitRing) != len(c.commitRing) {
		return fmt.Errorf("cpu: ring sizes %d/%d do not match window %d",
			len(st.CompleteRing), len(st.CommitRing), len(c.completeRing))
	}
	if len(st.SlotCycle) != len(c.slotCycle) || len(st.SlotUsed) != 4*len(c.slotUsed) {
		return fmt.Errorf("cpu: issue-slot ring size mismatch")
	}
	if len(st.Predictor) != len(c.bpred.counters) {
		return fmt.Errorf("cpu: predictor size %d, want %d", len(st.Predictor), len(c.bpred.counters))
	}
	if len(st.PFRecent) != len(c.pf.recent) {
		return fmt.Errorf("cpu: prefetcher window size mismatch")
	}
	if err := c.l1i.RestoreSnapshot(st.L1I); err != nil {
		return fmt.Errorf("cpu: %w", err)
	}
	if err := c.l1d.RestoreSnapshot(st.L1D); err != nil {
		return fmt.Errorf("cpu: %w", err)
	}
	c.l1i.SetStats(st.L1IStats)
	c.l1d.SetStats(st.L1DStats)
	c.SetFrequency(st.FreqHz)
	c.seq = st.Seq
	c.dispatchCycle = st.DispatchCycle
	c.dispatchCnt = st.DispatchCnt
	c.frontendReady = st.FrontendReady
	c.commitCycle = st.CommitCycle
	c.commitCnt = st.CommitCnt
	copy(c.completeRing, st.CompleteRing)
	copy(c.commitRing, st.CommitRing)
	c.lastILine = st.LastILine
	copy(c.slotCycle[:], st.SlotCycle)
	unflattenSlots(st.SlotUsed, &c.slotUsed)
	c.misses = c.misses[:0]
	for _, m := range st.Misses {
		c.misses = append(c.misses, outstanding{line: m.Line, complete: m.Complete})
	}
	copy(c.pf.recent[:], st.PFRecent)
	c.pf.idx = st.PFIdx
	c.cycleAtReset = st.CycleAtReset
	c.stats = st.Stats
	copy(c.bpred.counters, st.Predictor)
	c.gen.Restore(st.Gen)
	return nil
}

// flattenSlots serializes the per-cycle slot counters.
func flattenSlots(slots *[issueRingSize][4]uint8) []uint8 {
	out := make([]uint8, 0, 4*len(slots))
	for i := range slots {
		out = append(out, slots[i][:]...)
	}
	return out
}

// unflattenSlots restores the per-cycle slot counters.
func unflattenSlots(flat []uint8, slots *[issueRingSize][4]uint8) {
	for i := range slots {
		copy(slots[i][:], flat[4*i:4*i+4])
	}
}

// ReseedWorkload re-derives the workload generator's random streams from
// seed for this core's global ID (see workload.Generator.Reseed).
func (c *Core) ReseedWorkload(seed *rng.Stream) {
	c.gen.Reseed(c.id, seed)
}
