// Package workload stands at a component import path the snapshotcheck
// analyzer audits by default.
package workload

// Generator's Clone shares the pointer to its stream.
type Generator struct {
	pc     uint64
	stream *uint64 // want `reference field Generator.stream is shared by the whole-value copy in Clone`
}

func (g *Generator) Clone() *Generator {
	n := *g
	return &n
}
