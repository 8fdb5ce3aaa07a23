// Package cache implements the tag-only cache models of the simulated
// memory hierarchy (paper Sec. II-B, IV): 32KB 2-way L1 instruction and
// data caches per core, and the 4MB 16-way shared LLC of each cluster
// (accessed through the crossbar as 4 independent banks).
//
// The caches are timing/occupancy models in the style of trace-driven
// simulators: they store tags and dirty bits but no data. Caches are
// write-back, write-allocate, with true LRU replacement. This package has
// no miss-status holding registers: the core model tracks its in-flight
// L1D misses itself (cpu.Core's MSHR list, sized by Config.MSHREntries)
// to bound its memory-level parallelism.
package cache

import "fmt"

// Config describes one cache.
type Config struct {
	Name      string
	SizeBytes int
	Assoc     int
	LineBytes int
}

// L1Config returns the paper's 32KB 2-way L1 (I or D) configuration.
func L1Config(name string) Config {
	return Config{Name: name, SizeBytes: 32 << 10, Assoc: 2, LineBytes: 64}
}

// Stats counts cache events since the last ResetStats.
type Stats struct {
	Accesses   uint64
	Hits       uint64
	Misses     uint64
	Writebacks uint64 // dirty evictions
}

// Add sums o into s, field by field.
func (s *Stats) Add(o Stats) {
	s.Accesses += o.Accesses
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Writebacks += o.Writebacks
}

// HitRate returns hits/accesses (0 when empty).
func (s Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// A way is one packed uint64: the line address (the tag) shifted left by
// tagShift, with the dirty and valid flags in the low bits. An invalid
// way is always 0, so a 16-way set is 128 contiguous bytes and a lookup
// is one masked compare per way.
const (
	validBit = 1 << 0
	dirtyBit = 1 << 1
	tagShift = 2
)

// Cache is a set-associative, write-back, write-allocate, true-LRU,
// tag-only cache. It is not safe for concurrent use.
type Cache struct {
	cfg Config //ntclint:allow snapshotcheck config: fixed by New
	// ways holds every set's packed ways in one set-major slice: set s
	// occupies ways[s*assoc : (s+1)*assoc], ordered most- to
	// least-recently used.
	ways     []uint64
	assoc    int
	setMask  uint64 //ntclint:allow snapshotcheck derived: set count from cfg, recomputed by New
	lineBits uint   //ntclint:allow snapshotcheck derived: line size from cfg, recomputed by New
	stats    Stats  //ntclint:allow snapshotcheck captured by the Stats:SetStats pair beside Snapshot
}

// Victim describes a line evicted by a fill.
type Victim struct {
	Valid bool   // a valid line was evicted
	Dirty bool   // it requires a writeback
	Addr  uint64 // line-aligned address of the evicted line
}

// Result reports the outcome of one access.
type Result struct {
	Hit    bool
	Victim Victim // meaningful only on misses
}

// New validates cfg and builds the cache.
func New(cfg Config) (*Cache, error) {
	switch {
	case cfg.SizeBytes <= 0 || cfg.Assoc <= 0 || cfg.LineBytes <= 0:
		return nil, fmt.Errorf("cache %q: size, assoc, line must be positive", cfg.Name)
	case cfg.SizeBytes%(cfg.Assoc*cfg.LineBytes) != 0:
		return nil, fmt.Errorf("cache %q: size %d not divisible by assoc*line %d",
			cfg.Name, cfg.SizeBytes, cfg.Assoc*cfg.LineBytes)
	case cfg.LineBytes&(cfg.LineBytes-1) != 0:
		return nil, fmt.Errorf("cache %q: line size %d must be a power of two", cfg.Name, cfg.LineBytes)
	case cfg.LineBytes < 1<<tagShift:
		// The packed way keeps the line address above tagShift flag bits,
		// which loses no address bit only for lines of at least 4 bytes.
		return nil, fmt.Errorf("cache %q: line size %d is below the %d-byte minimum", cfg.Name, cfg.LineBytes, 1<<tagShift)
	}
	nsets := cfg.SizeBytes / (cfg.Assoc * cfg.LineBytes)
	if nsets&(nsets-1) != 0 {
		return nil, fmt.Errorf("cache %q: set count %d must be a power of two", cfg.Name, nsets)
	}
	c := &Cache{cfg: cfg, ways: make([]uint64, nsets*cfg.Assoc), assoc: cfg.Assoc, setMask: uint64(nsets - 1)}
	for l := cfg.LineBytes; l > 1; l >>= 1 {
		c.lineBits++
	}
	return c, nil
}

// MustNew is New for known-good configurations.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic("cache: MustNew: " + err.Error())
	}
	return c
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns the accumulated statistics.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats clears statistics but keeps cache contents (used between the
// warmup and measurement phases of sampled simulation).
func (c *Cache) ResetStats() { c.stats = Stats{} }

// lookup returns the set holding addr and the packed valid, clean way
// its line would occupy; a way w holds the line iff w&^dirtyBit == key.
func (c *Cache) lookup(addr uint64) (ways []uint64, key uint64) {
	line := addr >> c.lineBits // full line address as tag (simple, unambiguous)
	s := int(line&c.setMask) * c.assoc
	return c.ways[s : s+c.assoc : s+c.assoc], line<<tagShift | validBit
}

// victim decodes an evicted packed way.
func (c *Cache) victim(w uint64) Victim {
	if w&validBit == 0 {
		return Victim{}
	}
	return Victim{Valid: true, Dirty: w&dirtyBit != 0, Addr: w >> tagShift << c.lineBits}
}

// Access performs a read (write=false) or write (write=true) of the line
// containing addr. On a miss the line is filled immediately (tag-only
// model) and the victim, if any, is reported so the caller can issue the
// writeback traffic.
func (c *Cache) Access(addr uint64, write bool) Result {
	c.stats.Accesses++
	ways, key := c.lookup(addr)
	for i, w := range ways {
		if w&^dirtyBit == key {
			c.stats.Hits++
			if write {
				w |= dirtyBit
			}
			touch(ways, i, w)
			return Result{Hit: true}
		}
	}
	c.stats.Misses++
	// Fill: evict the LRU way (last slot), insert as MRU.
	res := Result{Victim: c.victim(ways[len(ways)-1])}
	if res.Victim.Dirty {
		c.stats.Writebacks++
	}
	if write {
		key |= dirtyBit
	}
	touch(ways, len(ways)-1, key)
	return res
}

// Fill installs the line containing addr without counting statistics,
// returning the victim if one was evicted. Used for prefetch fills, whose
// hits/misses must not pollute demand-access statistics.
func (c *Cache) Fill(addr uint64) Victim {
	ways, key := c.lookup(addr)
	for i, w := range ways {
		if w&^dirtyBit == key {
			touch(ways, i, w)
			return Victim{}
		}
	}
	v := c.victim(ways[len(ways)-1])
	touch(ways, len(ways)-1, key)
	return v
}

// Probe reports whether the line containing addr is present, without
// changing any state.
func (c *Cache) Probe(addr uint64) bool {
	ways, key := c.lookup(addr)
	for _, w := range ways {
		if w&^dirtyBit == key {
			return true
		}
	}
	return false
}

// touch shifts ways[0:i] down one slot and stores w as the MRU way; with
// i = len(ways)-1 that evicts the LRU way.
func touch(ways []uint64, i int, w uint64) {
	copy(ways[1:i+1], ways[:i])
	ways[0] = w
}

// LineState is the externally visible state of one cache way, used by
// checkpointing.
type LineState struct {
	Tag   uint64
	Valid bool
	Dirty bool
}

// Snapshot captures the full tag-array state (sets in MRU-to-LRU order).
func (c *Cache) Snapshot() [][]LineState {
	out := make([][]LineState, len(c.ways)/c.assoc)
	for i := range out {
		row := make([]LineState, c.assoc)
		for j, w := range c.ways[i*c.assoc : (i+1)*c.assoc] {
			if w&validBit != 0 {
				row[j] = LineState{Tag: w >> tagShift, Valid: true, Dirty: w&dirtyBit != 0}
			}
		}
		out[i] = row
	}
	return out
}

// RestoreSnapshot loads a snapshot captured from an identically configured
// cache. Statistics are left untouched. An invalid way restores empty
// whatever its other fields say (the cache never produces another kind).
func (c *Cache) RestoreSnapshot(snap [][]LineState) error {
	if len(snap)*c.assoc != len(c.ways) {
		return fmt.Errorf("cache %q: snapshot has %d sets, want %d", c.cfg.Name, len(snap), len(c.ways)/c.assoc)
	}
	for i, row := range snap {
		if len(row) != c.assoc {
			return fmt.Errorf("cache %q: set %d has %d ways, want %d", c.cfg.Name, i, len(row), c.assoc)
		}
		for _, ls := range row {
			if ls.Valid && ls.Tag>>(64-tagShift) != 0 {
				return fmt.Errorf("cache %q: set %d holds tag %#x wider than %d bits", c.cfg.Name, i, ls.Tag, 64-tagShift)
			}
		}
	}
	for i, row := range snap {
		for j, ls := range row {
			var w uint64
			if ls.Valid {
				w = ls.Tag<<tagShift | validBit
				if ls.Dirty {
					w |= dirtyBit
				}
			}
			c.ways[i*c.assoc+j] = w
		}
	}
	return nil
}

// SetStats overwrites the statistics counters (checkpoint restore).
func (c *Cache) SetStats(s Stats) { c.stats = s }
