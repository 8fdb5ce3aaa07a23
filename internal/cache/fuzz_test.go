package cache

import (
	"reflect"
	"testing"
)

// FuzzAccessMatchesReference cross-checks the cache against the map-based
// reference LRU model on arbitrary operation strings: hits, victims and
// dirty bits of reads, writes, prefetch fills and invalidations, then the
// snapshot, which must match the reference and restore into a cache that
// behaves identically from there on. ops[i]&3 selects the operation of
// access i: 0 read, 1 write, 2 fill, 3 invalidate.
func FuzzAccessMatchesReference(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0, 1}, []byte{0})
	f.Add([]byte{255, 0, 255, 0}, []byte{1, 0, 1, 0})
	f.Add([]byte{0, 64, 128, 0, 192, 64}, []byte{1, 1, 2, 3, 0, 1})
	f.Fuzz(func(t *testing.T, addrs []byte, ops []byte) {
		cfg := Config{Name: "fuzz", SizeBytes: 512, Assoc: 2, LineBytes: 64}
		c := MustNew(cfg)
		ref := newRef(cfg)
		op := func(i int) byte {
			if i < len(ops) {
				return ops[i] & 3
			}
			return 0
		}
		for i, a := range addrs {
			addr := uint64(a) << 4 // spread across sets and lines
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
			case 3:
				gp, gd := c.Invalidate(addr)
				wp, wd := ref.invalidate(addr)
				if gp != wp || gd != wd {
					t.Fatalf("invalidate %d (addr %x): cache (%v, %v), reference (%v, %v)", i, addr, gp, gd, wp, wd)
				}
			}
		}
		st := c.Stats()
		if st.Hits+st.Misses != st.Accesses || st.Writebacks > st.Misses {
			t.Fatalf("stats inconsistent: %+v", st)
		}
		snap := c.Snapshot()
		if want := ref.snapshot(); !reflect.DeepEqual(snap, want) {
			t.Fatalf("snapshot %v, reference %v", snap, want)
		}
		restored := MustNew(cfg)
		if err := restored.RestoreSnapshot(snap); err != nil {
			t.Fatal(err)
		}
		for i, a := range addrs {
			addr := uint64(a) << 4
			w := op(i) == 1
			if got, want := restored.Access(addr, w), c.Access(addr, w); got != want {
				t.Fatalf("replay %d after restore (addr %x): %+v, original %+v", i, addr, got, want)
			}
		}
		if !reflect.DeepEqual(restored.Snapshot(), c.Snapshot()) {
			t.Fatal("restored cache diverged from the original")
		}
	})
}

// FuzzMSHRInvariants checks the miss-file bookkeeping under arbitrary
// allocate/complete interleavings.
func FuzzMSHRInvariants(f *testing.F) {
	f.Add([]byte{1, 2, 3, 1, 2}, []byte{0, 1})
	f.Fuzz(func(t *testing.T, allocs []byte, completes []byte) {
		m := NewMSHR(4)
		live := map[uint64]int{}
		for _, a := range allocs {
			line := uint64(a % 16)
			primary, ok := m.Allocate(line)
			if !ok {
				if len(live) < 4 {
					t.Fatalf("refused allocation with %d/4 entries", len(live))
				}
				continue
			}
			if primary != (live[line] == 0) {
				t.Fatalf("primary flag wrong for line %d", line)
			}
			live[line]++
		}
		for _, cByte := range completes {
			line := uint64(cByte % 16)
			n := m.Complete(line)
			if n != live[line] {
				t.Fatalf("completed %d merged requests, tracked %d", n, live[line])
			}
			delete(live, line)
		}
		if m.InFlight() != len(live) {
			t.Fatalf("in flight %d, tracked %d", m.InFlight(), len(live))
		}
	})
}
