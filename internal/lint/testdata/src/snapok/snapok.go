// Package snapok exercises the snapshotcheck analyzer's negative cases:
// complete pairs, automatic skips, and getter-only exports.
package snapok

import "sync"

// Machine's pair is complete in both directions; the mutex is skipped
// automatically (lock state is never checkpointed).
type Machine struct {
	mu    sync.Mutex
	tick  uint64
	items []int
}

type MachineState struct {
	Tick  uint64
	Items []int
}

func (m *Machine) Snapshot() *MachineState {
	m.mu.Lock()
	defer m.mu.Unlock()
	return &MachineState{
		Tick:  m.tick,
		Items: append([]int(nil), m.items...),
	}
}

func (m *Machine) Restore(st *MachineState) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.tick = st.Tick
	m.items = append(m.items[:0], st.Items...)
}

// Export has a Snapshot getter but no Restore anywhere: it is a
// read-only view, not a checkpoint, so no pair forms and no coverage is
// demanded.
type Export struct {
	hidden int
	Value  int
}

type ExportView struct {
	Value int
}

func (e *Export) Snapshot() ExportView { return ExportView{Value: e.Value} }

// Pool's pair round-trips through a package-level restore function, the
// sim.RestoreCluster shape.
type Pool struct {
	level int
}

type PoolImage struct {
	Level int
}

func (p *Pool) Checkpoint() *PoolImage { return &PoolImage{Level: p.level} }

func RestoreCluster(im *PoolImage) *Pool { return &Pool{level: im.Level} }

// Counter's image is a plain uint64 — only live-field coverage applies.
type Counter struct {
	next int
}

func (c *Counter) State() uint64    { return uint64(c.next) }
func (c *Counter) Restore(v uint64) { c.next = int(v) }

// Wholesale copies and struct conversions cover every field at once.
type Blob struct {
	a, b int
}

func (bl *Blob) State() blobState    { return blobState(*bl) }
func (bl *Blob) Restore(s blobState) { *bl = Blob(s) }

type blobState Blob
