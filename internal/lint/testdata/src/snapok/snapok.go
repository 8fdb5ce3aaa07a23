// Package snapok exercises the snapshotcheck analyzer's negative cases:
// complete clones, automatic skips, and methods that are not clones.
package snapok

import "sync"

// Machine's Clone copies the receiver whole and names its one reference
// field; the mutex is skipped automatically.
type Machine struct {
	mu    sync.Mutex
	tick  uint64
	limit int
	items []int
}

func (m *Machine) Clone() *Machine {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := &Machine{tick: m.tick, limit: m.limit}
	n.items = append([]int(nil), m.items...)
	return n
}

// Core's Clone copies the receiver whole, gives the copy its own ring
// and caches, shares its read-only table by name, and rewires its owner.
type Core struct {
	width int
	cycle uint64
	ring  []int64
	l1    *Cache
	table *[]uint64
	owner any
	obs   []uint64
}

func (c *Core) Clone(owner any) *Core {
	n := *c
	n.ring = append([]int64(nil), c.ring...)
	n.l1 = c.l1.clone()
	n.table = c.table // shared: read-only after construction
	n.owner = owner
	n.obs = nil
	return &n
}

// Cache's lower-case clone copies it whole and its tag array by name.
type Cache struct {
	ways  []uint64
	assoc int
}

func (c *Cache) clone() *Cache {
	n := *c
	n.ways = append([]uint64(nil), c.ways...)
	return &n
}

// Gen holds only values, so a whole-value copy is the whole clone.
type Gen struct {
	pc, produced uint64
	inOS         bool
}

func (g *Gen) Clone() *Gen {
	n := *g
	return &n
}

// Export has a Snapshot but no Clone: it is not audited.
type Export struct {
	hidden []int
	Value  int
}

func (e *Export) Snapshot() int { return e.Value }
