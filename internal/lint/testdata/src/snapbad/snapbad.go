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

// Ring's copy-into routine reuses its destination's buffer but forgets
// the log added after it, which the whole-value copy then shares. Its
// Clone only delegates, so the routine carries the diagnostic.
type Ring struct {
	head int
	buf  []int
	log  []string // want `reference field Ring.log is shared by the whole-value copy in CloneInto`
}

func (r *Ring) CloneInto(dst *Ring) *Ring {
	if dst == nil {
		dst = new(Ring)
	}
	buf := dst.buf
	*dst = *r
	dst.buf = append(buf[:0], r.buf...)
	return dst
}

func (r *Ring) Clone() *Ring { return r.CloneInto(nil) }

// Bank's Clone does more than delegate, so it is audited as written: it
// names no field and copies no receiver whole.
type Bank struct {
	rows []int // want `field Bank.rows is not copied by Clone`
}

func (b *Bank) cloneInto(dst *Bank) *Bank {
	rows := dst.rows
	*dst = *b
	dst.rows = append(rows[:0], b.rows...)
	return dst
}

func (b *Bank) Clone() *Bank {
	n := b.cloneInto(new(Bank))
	return n
}
