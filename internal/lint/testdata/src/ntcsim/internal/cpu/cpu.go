// Package cpu stands at a component import path the snapshotcheck
// analyzer audits by default: run with its production flags, it must
// report the field this Clone shares.
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
