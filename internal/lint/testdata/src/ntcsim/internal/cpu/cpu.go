// Package cpu stands at a component import path the snapshotcheck
// analyzer audits by default: run with its production flags, it must
// report the field this State/Restore pair misses.
package cpu

// Core checkpoints its cycle count but not its instruction count.
type Core struct {
	width  int //ntclint:allow snapshotcheck config: fixed at construction
	cycles uint64
	instrs uint64 // want `field Core.instrs is not captured by State`
}

// CoreState is the core's checkpoint image.
type CoreState struct {
	Cycles uint64
}

func (c *Core) State() CoreState { return CoreState{Cycles: c.cycles} }

func (c *Core) Restore(st CoreState) error {
	c.cycles = st.Cycles
	return nil
}
