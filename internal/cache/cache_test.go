package cache

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func tiny() Config {
	// 4 sets x 2 ways x 64B lines = 512B: easy to reason about.
	return Config{Name: "tiny", SizeBytes: 512, Assoc: 2}
}

func TestMissThenHit(t *testing.T) {
	c := MustNew(tiny())
	if r := c.Access(0x1000, false); r.Hit {
		t.Fatal("cold access should miss")
	}
	if r := c.Access(0x1000, false); !r.Hit {
		t.Fatal("second access should hit")
	}
	st := c.Stats()
	if st.Accesses != 2 || st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestSameLineDifferentOffsetsHit(t *testing.T) {
	c := MustNew(tiny())
	c.Access(0x1000, false)
	if r := c.Access(0x103F, false); !r.Hit {
		t.Fatal("same 64B line should hit")
	}
}

func TestLRUEviction(t *testing.T) {
	c := MustNew(tiny())
	// Set 0 holds lines with line-addr % 4 == 0: 0x000, 0x400, 0x800.
	c.Access(0x000, false)
	c.Access(0x400, false)
	c.Access(0x000, false) // touch 0x000: LRU is now 0x400
	r := c.Access(0x800, false)
	if r.Hit {
		t.Fatal("conflict miss expected")
	}
	if r.Victim != (Victim{Addr: 0x400}) {
		t.Fatalf("victim = %+v, want 0x400 (the LRU line)", r.Victim)
	}
	if !c.Probe(0x000) {
		t.Fatal("0x000 was MRU and must survive")
	}
	if c.Probe(0x400) {
		t.Fatal("0x400 must have been evicted")
	}
}

func TestDirtyEvictionReportsWriteback(t *testing.T) {
	c := MustNew(tiny())
	c.Access(0x000, true) // dirty
	c.Access(0x400, false)
	r := c.Access(0x800, false) // evicts 0x000
	if r.Victim != (Victim{Dirty: true, Addr: 0x000}) {
		t.Fatalf("victim = %+v, want dirty 0x000", r.Victim)
	}
	if c.Stats().Writebacks != 1 {
		t.Fatalf("writebacks = %d", c.Stats().Writebacks)
	}
}

func TestCleanEvictionNoWriteback(t *testing.T) {
	c := MustNew(tiny())
	c.Access(0x000, false)
	c.Access(0x400, false)
	r := c.Access(0x800, false)
	if r.Victim.Dirty {
		t.Fatal("clean line should not need writeback")
	}
	if c.Stats().Writebacks != 0 {
		t.Fatal("no writebacks expected")
	}
}

func TestWriteHitMarksDirty(t *testing.T) {
	c := MustNew(tiny())
	c.Access(0x000, false) // clean fill
	c.Access(0x000, true)  // write hit -> dirty
	c.Access(0x400, false)
	r := c.Access(0x800, false)
	if !r.Victim.Dirty {
		t.Fatal("write hit should have dirtied the line")
	}
}

func TestProbeDoesNotPerturbLRU(t *testing.T) {
	c := MustNew(tiny())
	c.Access(0x000, false)
	c.Access(0x400, false) // LRU: 0x000
	c.Probe(0x000)         // must NOT touch
	r := c.Access(0x800, false)
	if r.Victim.Addr != 0x000 {
		t.Fatalf("probe perturbed LRU: victim %+v", r.Victim)
	}
}

func TestResetStatsKeepsContents(t *testing.T) {
	c := MustNew(tiny())
	c.Access(0x000, false)
	c.ResetStats()
	if c.Stats().Accesses != 0 {
		t.Fatal("stats should be cleared")
	}
	if r := c.Access(0x000, false); !r.Hit {
		t.Fatal("contents must survive ResetStats")
	}
}

func TestCapacityWorkingSet(t *testing.T) {
	// A working set that fits the cache has 100% hit rate after warmup; one
	// that doubles it thrashes (with LRU and a cyclic pattern, ~0%).
	cfg := L1Config("l1d")
	c := MustNew(cfg)
	lines := cfg.SizeBytes / LineBytes
	warm := func(n int) {
		for i := 0; i < n; i++ {
			c.Access(uint64(i*LineBytes), false)
		}
	}
	warm(lines)
	c.ResetStats()
	warm(lines)
	if hr := c.Stats().HitRate(); hr != 1.0 {
		t.Fatalf("fitting working set hit rate = %v, want 1.0", hr)
	}
	c = MustNew(cfg)
	for pass := 0; pass < 3; pass++ {
		warm(2 * lines)
	}
	c.ResetStats()
	warm(2 * lines)
	if hr := c.Stats().HitRate(); hr > 0.01 {
		t.Fatalf("thrashing working set hit rate = %v, want ~0", hr)
	}
}

func TestStatsConsistency(t *testing.T) {
	c := MustNew(L1Config("l1d"))
	addr := uint64(1)
	for i := 0; i < 10000; i++ {
		addr = addr*2862933555777941757 + 3037000493
		c.Access(addr%(1<<20), i%3 == 0)
	}
	st := c.Stats()
	if st.Hits+st.Misses != st.Accesses {
		t.Fatalf("hits+misses != accesses: %+v", st)
	}
	if st.Writebacks > st.Misses {
		t.Fatalf("writebacks cannot exceed misses: %+v", st)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{SizeBytes: 0, Assoc: 2},
		{SizeBytes: 512, Assoc: 0},
		{SizeBytes: 500, Assoc: 2}, // not divisible
		{SizeBytes: 384, Assoc: 2}, // 3 sets
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestPaperConfigs(t *testing.T) {
	l1 := MustNew(L1Config("l1i"))
	if got := l1.cfg.SizeBytes; got != 32<<10 {
		t.Fatalf("L1 size = %d", got)
	}
	if got := l1.cfg.Assoc; got != 2 {
		t.Fatalf("L1 assoc = %d", got)
	}
}

// TestTagRange: a line whose tag needs the 30th bit round-trips through
// eviction; one whose tag needs a 31st bit panics instead of aliasing
// onto the line with that bit cleared.
func TestTagRange(t *testing.T) {
	c := MustNew(tiny()) // 4 sets: tag = addr >> 8
	const top = (1<<30 - 1) << 8
	c.Access(top, true)
	c.Access(top-1<<8, false)
	if v := c.Access(top-2<<8, false).Victim; v != (Victim{Dirty: true, Addr: top}) {
		t.Fatalf("victim = %+v, want dirty %#x", v, uint64(top))
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.HasPrefix(msg, "cache: ") {
			t.Fatalf("recovered %q, want a cache: panic", msg)
		}
	}()
	c.Access(top+1<<8, false)
	t.Fatal("an address beyond the tag range did not panic")
}

// refModel is an obviously-correct write-back LRU cache for
// cross-checking: per set, a slice of lines ordered MRU first.
type refModel struct {
	assoc int
	nsets uint64
	sets  map[uint64][]refLine
}

type refLine struct {
	line  uint64
	dirty bool
}

func newRef(cfg Config) *refModel {
	nsets := cfg.SizeBytes / (cfg.Assoc * LineBytes)
	return &refModel{assoc: cfg.Assoc, nsets: uint64(nsets), sets: map[uint64][]refLine{}}
}

// access reads or writes addr: a hit moves the line to MRU (dirtying it
// on a write), a miss inserts it as MRU and evicts the LRU line of a
// full set.
func (r *refModel) access(addr uint64, write bool) (hit bool, victim Victim) {
	line := addr / LineBytes
	set := line % r.nsets
	s := r.sets[set]
	for i, l := range s {
		if l.line == line {
			l.dirty = l.dirty || write
			copy(s[1:i+1], s[:i])
			s[0] = l
			return true, Victim{}
		}
	}
	s = append([]refLine{{line, write}}, s...)
	if len(s) > r.assoc {
		v := s[r.assoc]
		victim = Victim{Dirty: v.dirty, Addr: v.line * LineBytes}
		s = s[:r.assoc]
	}
	r.sets[set] = s
	return false, victim
}

// fill installs addr clean as MRU, or just touches it when present.
func (r *refModel) fill(addr uint64) Victim {
	line := addr / LineBytes
	for _, l := range r.sets[line%r.nsets] {
		if l.line == line {
			r.access(addr, false)
			return Victim{}
		}
	}
	_, v := r.access(addr, false)
	return v
}

// ways renders the model in Cache.ways's packed, set-major, MRU-first
// layout: each way is the line's tag (the line address divided by the
// set count) times 4, plus 2 when dirty, plus 1 for valid.
func (r *refModel) ways() []uint32 {
	out := make([]uint32, r.nsets*uint64(r.assoc))
	for set := uint64(0); set < r.nsets; set++ {
		for j, l := range r.sets[set] {
			w := uint32(l.line/r.nsets)*4 + 1
			if l.dirty {
				w += 2
			}
			out[set*uint64(r.assoc)+uint64(j)] = w
		}
	}
	return out
}

// TestQuickMatchesReferenceLRU: hits, victims and dirty bits of random
// read/write strings match the reference model, and so does the final
// tag array.
func TestQuickMatchesReferenceLRU(t *testing.T) {
	cfg := tiny()
	c := MustNew(cfg)
	ref := newRef(cfg)
	err := quick.Check(func(addrs []uint16, writes []bool) bool {
		for i, a := range addrs {
			addr := uint64(a)
			w := i < len(writes) && writes[i]
			got := c.Access(addr, w)
			if hit, victim := ref.access(addr, w); got.Hit != hit || got.Victim != victim {
				return false
			}
		}
		return slices.Equal(c.ways, ref.ways())
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestQuickStatsInvariant(t *testing.T) {
	c := MustNew(tiny())
	err := quick.Check(func(addrs []uint32, writes []bool) bool {
		for i, a := range addrs {
			w := i < len(writes) && writes[i]
			c.Access(uint64(a), w)
		}
		st := c.Stats()
		return st.Hits+st.Misses == st.Accesses && st.Writebacks <= st.Misses
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAccessHit(b *testing.B) {
	c := MustNew(L1Config("l1d"))
	c.Access(0x1000, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(0x1000, false)
	}
}

func BenchmarkAccessRandom(b *testing.B) {
	c := MustNew(Config{Name: "llc-bank", SizeBytes: 1 << 20, Assoc: 16})
	addr := uint64(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr = addr*2862933555777941757 + 3037000493
		c.Access(addr%(1<<28), false)
	}
}
