// Package snapbad exercises the snapshotcheck analyzer's positive
// cases, including the headline scenario: a slice field newly added to a
// struct whose Clone copies the receiver whole, so the original and its
// copy would silently share the slice's backing array.
package snapbad

// Engine's Clone predates the pending field.
type Engine struct {
	tick    uint64
	queue   []int
	pending []int // want `reference field Engine.pending is shared by the whole-value copy in Clone`
}

func (e *Engine) Clone() *Engine {
	n := *e
	n.queue = append([]int(nil), e.queue...)
	return &n
}

// gen copies field by field and forgets its rate, a plain value: without
// a whole-value copy every field must be named.
type gen struct {
	rate float64 // want `field gen.rate is not copied by clone`
	pos  int
}

func (g *gen) clone() *gen { return &gen{pos: g.pos} }

// Table shares its map, its pointer and its callback through the
// whole-value copy.
type Table struct {
	lines  []uint64
	index  map[uint64]int // want `reference field Table.index is shared`
	parent *Table         // want `reference field Table.parent is shared`
	onMiss func()         // want `reference field Table.onMiss is shared`
	hits   uint64
}

func (t *Table) Clone() *Table {
	n := *t
	n.lines = append([]uint64(nil), t.lines...)
	return &n
}
