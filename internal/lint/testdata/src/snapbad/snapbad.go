// Package snapbad exercises the snapshotcheck analyzer's positive
// cases, including the headline scenario: a field newly added to a live
// struct that the existing Snapshot/Restore pair does not mirror.
package snapbad

// Engine is a checkpointable type whose pair predates the newCounter
// field — exactly the forward-protection case the analyzer exists for.
type Engine struct {
	tick       uint64
	queue      []int
	newCounter uint64 // want `field Engine.newCounter is not captured by Snapshot`
}

// Image mirrors Engine, but staleField is written by nobody and
// readBackOnly is never restored.
type Image struct {
	Tick       uint64
	Queue      []int
	StaleField uint64 // want `snapshot field Image.StaleField is never written by Engine.Snapshot` `snapshot field Image.StaleField is never read back by Restore`
}

func (e *Engine) Snapshot() *Image {
	return &Image{
		Tick:  e.tick,
		Queue: append([]int(nil), e.queue...),
	}
}

func (e *Engine) Restore(im *Image) {
	e.tick = im.Tick
	e.queue = append(e.queue[:0], im.Queue...)
}

// Gen pairs the State:Restore convention; its rate field is config that
// SHOULD be annotated but is not.
type Gen struct {
	rate float64 // want `field Gen.rate is not captured by State`
	pos  int
}

type GenState struct {
	Pos int
}

func (g *Gen) State() GenState    { return GenState{Pos: g.pos} }
func (g *Gen) Restore(s GenState) { g.pos = s.Pos }

// Table pairs Snapshot:RestoreSnapshot with a plain slice image, the
// cache.Cache shape; its hits counter escapes the snapshot.
type Table struct {
	lines []uint64
	hits  uint64 // want `field Table.hits is not captured by Snapshot`
}

func (t *Table) Snapshot() []uint64 { return append([]uint64(nil), t.lines...) }

func (t *Table) RestoreSnapshot(lines []uint64) error {
	copy(t.lines, lines)
	return nil
}
