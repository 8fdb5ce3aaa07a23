// Package cache implements the tag-only cache models of the simulated
// memory hierarchy (paper Sec. II-B, IV): 32KB 2-way L1 instruction and
// data caches per core, and the 4MB 16-way shared LLC of each cluster
// (accessed through the crossbar as 4 independent banks).
//
// The caches are timing/occupancy models in the style of trace-driven
// simulators: they store tags and dirty bits but no data, packed 32 bits
// to a way, so a 16-way LLC set is one 64-byte host cache line. Caches
// are write-back, write-allocate, with true LRU replacement. This package has
// no miss-status holding registers: the core model tracks its in-flight
// L1D misses itself (cpu.Core's MSHR list, sized by Config.MSHREntries)
// to bound its memory-level parallelism.
package cache

import (
	"fmt"
	"math/bits"
	"slices"
)

// The memory hierarchy has one line size: every cache, the LLC's SRAM
// arrays, each DRAM transfer and the workload generator's address layout
// work in 64-byte lines.
const (
	LineBits  = 6 // log2(LineBytes)
	LineBytes = 1 << LineBits
)

// Config describes one cache.
type Config struct {
	Name      string
	SizeBytes int
	Assoc     int
}

// L1Config returns the paper's 32KB 2-way L1 (I or D) configuration.
func L1Config(name string) Config {
	return Config{Name: name, SizeBytes: 32 << 10, Assoc: 2}
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

// A way is one packed uint32: the tag (the line address above the set
// index) shifted left by tagShift, with the dirty and valid flags in the
// low bits. An invalid way is always 0, so a 16-way set is 64 contiguous
// bytes and a lookup is one masked compare per way. A tag must fit the
// remaining tagBits bits; lookup panics on an address beyond that range
// instead of aliasing it onto another line.
const (
	validBit = 1 << 0
	dirtyBit = 1 << 1
	tagShift = 2
	tagBits  = 32 - tagShift
)

// Cache is a set-associative, write-back, write-allocate, true-LRU,
// tag-only cache. It is not safe for concurrent use.
type Cache struct {
	cfg Config
	// ways holds every set's packed ways in one set-major slice: set s
	// occupies ways[s*assoc : (s+1)*assoc], ordered most- to
	// least-recently used.
	ways    []uint32
	assoc   int
	setBits uint // log2 of the set count
	setMask uint64
	stats   Stats
}

// Victim describes the line a fill evicted; it is the zero Victim when
// the fill took an invalid way.
type Victim struct {
	Dirty bool   // the evicted line requires a writeback
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
	case cfg.SizeBytes <= 0 || cfg.Assoc <= 0:
		return nil, fmt.Errorf("cache %q: size and assoc must be positive", cfg.Name)
	case cfg.SizeBytes%(cfg.Assoc*LineBytes) != 0:
		return nil, fmt.Errorf("cache %q: size %d not divisible by assoc*line %d",
			cfg.Name, cfg.SizeBytes, cfg.Assoc*LineBytes)
	}
	nsets := cfg.SizeBytes / (cfg.Assoc * LineBytes)
	if nsets&(nsets-1) != 0 {
		return nil, fmt.Errorf("cache %q: set count %d must be a power of two", cfg.Name, nsets)
	}
	return &Cache{
		cfg:     cfg,
		ways:    make([]uint32, nsets*cfg.Assoc),
		assoc:   cfg.Assoc,
		setBits: uint(bits.TrailingZeros(uint(nsets))),
		setMask: uint64(nsets - 1),
	}, nil
}

// MustNew is New for known-good configurations.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic("cache: MustNew: " + err.Error())
	}
	return c
}

// Stats returns the accumulated statistics.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats clears statistics but keeps cache contents (used between the
// warmup and measurement phases of sampled simulation).
func (c *Cache) ResetStats() { c.stats = Stats{} }

// lookup returns the set holding addr, its index, and the packed valid,
// clean way its line would occupy; a way w holds the line iff
// w&^dirtyBit == key.
func (c *Cache) lookup(addr uint64) (ways []uint32, set, key uint32) {
	line := addr >> LineBits
	tag := line >> c.setBits
	if tag >= 1<<tagBits {
		panic("cache: address tag exceeds the 30 bits of a packed way")
	}
	set = uint32(line & c.setMask)
	s := int(set) * c.assoc
	return c.ways[s : s+c.assoc : s+c.assoc], set, uint32(tag)<<tagShift | validBit
}

// victim decodes the packed way w evicted from set: the zero Victim for
// an invalid way, otherwise the line rebuilt from its tag and set index.
func (c *Cache) victim(w, set uint32) Victim {
	if w&validBit == 0 {
		return Victim{}
	}
	line := uint64(w>>tagShift)<<c.setBits | uint64(set)
	return Victim{Dirty: w&dirtyBit != 0, Addr: line << LineBits}
}

// Access performs a read (write=false) or write (write=true) of the line
// containing addr. On a miss the line is filled immediately (tag-only
// model) and the victim, if any, is reported so the caller can issue the
// writeback traffic.
func (c *Cache) Access(addr uint64, write bool) Result {
	c.stats.Accesses++
	ways, set, key := c.lookup(addr)
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
	res := Result{Victim: c.victim(ways[len(ways)-1], set)}
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
	ways, set, key := c.lookup(addr)
	for i, w := range ways {
		if w&^dirtyBit == key {
			touch(ways, i, w)
			return Victim{}
		}
	}
	v := c.victim(ways[len(ways)-1], set)
	touch(ways, len(ways)-1, key)
	return v
}

// Probe reports whether the line containing addr is present, without
// changing any state.
func (c *Cache) Probe(addr uint64) bool {
	ways, _, key := c.lookup(addr)
	for _, w := range ways {
		if w&^dirtyBit == key {
			return true
		}
	}
	return false
}

// touch shifts ways[0:i] down one slot and stores w as the MRU way; with
// i = len(ways)-1 that evicts the LRU way.
func touch(ways []uint32, i int, w uint32) {
	copy(ways[1:i+1], ways[:i])
	ways[0] = w
}

// Clone returns an independent copy of the cache: contents, LRU order
// and statistics.
func (c *Cache) Clone() *Cache {
	n := *c
	n.ways = slices.Clone(c.ways)
	return &n
}
