// Package cpu stands at a component import path the snapshotcheck
// analyzer audits by default: run with its production flags, it must
// report the field this Clone shares, and the one this copy-into routine
// shares.
package cpu

// Core copies its ring but shares its predictor table.
type Core struct {
	width   int
	cycles  uint64
	ring    []int64
	predict []uint8 // want `reference field Core.predict is shared by the whole-value copy in Clone`
}

func (c *Core) Clone() *Core {
	n := *c
	n.ring = append([]int64(nil), c.ring...)
	return &n
}

// Replayer's copy-into routine reuses the ring but never decides about
// the tape it replays.
type Replayer struct {
	ring   []int64
	tape   *[]byte // want `reference field Replayer.tape is shared by the whole-value copy in CloneInto`
	cursor int
}

func (r *Replayer) CloneInto(dst *Replayer) *Replayer {
	ring := dst.ring
	*dst = *r
	dst.ring = append(ring[:0], r.ring...)
	return dst
}
