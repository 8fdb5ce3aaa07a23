package cache

import (
	"reflect"
	"slices"
	"testing"
)

// FuzzAccessMatchesReference cross-checks the cache against the map-based
// reference LRU model on arbitrary operation strings: hits, victims and
// dirty bits of reads, writes and prefetch fills, then the tag array,
// which must match the reference and clone into a cache that behaves
// identically from there on without sharing it. ops[i]%3 selects the operation of access i:
// 0 read, 1 write, 2 fill.
func FuzzAccessMatchesReference(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0, 1}, []byte{0})
	f.Add([]byte{255, 0, 255, 0}, []byte{1, 0, 1, 0})
	f.Add([]byte{0, 64, 128, 0, 192, 64}, []byte{1, 1, 2, 3, 0, 1})
	f.Fuzz(func(t *testing.T, addrs []byte, ops []byte) {
		cfg := Config{Name: "fuzz", SizeBytes: 512, Assoc: 2}
		c := MustNew(cfg)
		ref := newRef(cfg)
		op := func(i int) byte {
			if i < len(ops) {
				return ops[i] % 3
			}
			return 0
		}
		for i, a := range addrs {
			addr := fuzzAddr(a)
			switch op(i) {
			case 0, 1:
				w := op(i) == 1
				got := c.Access(addr, w)
				hit, victim := ref.access(addr, w)
				if got.Hit != hit || got.Victim != victim {
					t.Fatalf("access %d (addr %x, write %v): cache %+v, reference hit %v victim %+v",
						i, addr, w, got, hit, victim)
				}
			case 2:
				if got, want := c.Fill(addr), ref.fill(addr); got != want {
					t.Fatalf("fill %d (addr %x): cache victim %+v, reference %+v", i, addr, got, want)
				}
			}
		}
		st := c.Stats()
		if st.Hits+st.Misses != st.Accesses || st.Writebacks > st.Misses {
			t.Fatalf("stats inconsistent: %+v", st)
		}
		if want := ref.ways(); !slices.Equal(c.ways, want) {
			t.Fatalf("ways %x, reference %x", c.ways, want)
		}
		clone := c.Clone()
		for i, a := range addrs {
			addr := fuzzAddr(a)
			w := op(i) == 1
			if got, want := clone.Access(addr, w), c.Access(addr, w); got != want {
				t.Fatalf("replay %d on the clone (addr %x): %+v, original %+v", i, addr, got, want)
			}
		}
		if !reflect.DeepEqual(clone, c) {
			t.Fatal("clone diverged from the original")
		}
		if len(c.ways) > 0 && &clone.ways[0] == &c.ways[0] {
			t.Fatal("clone shares the original's tag array")
		}
	})
}

// fuzzAddr spreads a fuzz byte across the sets, lines and line offsets of
// the 4-set fuzz cache, and copies its high nibble to the top four bits
// of the 30-bit tag so victims must rebuild high tag bits too.
func fuzzAddr(a byte) uint64 {
	return uint64(a)<<4 | uint64(a>>4)<<34
}
