// Package workload stands at a component import path the snapshotcheck
// analyzer audits by default.
package workload

// Generator checkpoints its PC but not its produced count.
type Generator struct {
	pc       uint64
	produced uint64 // want `field Generator.produced is not captured by State`
}

// GeneratorState is the generator's checkpoint image.
type GeneratorState struct {
	PC uint64
}

func (g *Generator) State() GeneratorState { return GeneratorState{PC: g.pc} }

func (g *Generator) Restore(st GeneratorState) { g.pc = st.PC }
