package dram

import (
	"testing"

	"ntcsim/internal/cache"
)

// FuzzSubmit drives the bank state machine with arbitrary address/write
// sequences and checks its global invariants: completions never precede
// submissions, statistics stay consistent, and row outcomes partition the
// accesses.
func FuzzSubmit(f *testing.F) {
	f.Add(uint64(0), uint64(4096), uint64(1<<30), byte(1))
	f.Add(uint64(64), uint64(64), uint64(128), byte(0))
	f.Add(uint64(1<<40), uint64(12345), uint64(1<<20), byte(3))
	f.Fuzz(func(t *testing.T, a1, a2, a3 uint64, wmask byte) {
		cfg := DefaultConfig()
		s := mustNew(cfg)
		now := 0.0
		minRead := float64(cfg.Timing.CL)*cfg.Timing.TCKNs + cfg.Timing.BurstNs()
		addrs := []uint64{a1, a2, a3, a1 ^ a2, a2 + a3, a3 * 7}
		for i, a := range addrs {
			write := wmask&(1<<uint(i%8)) != 0
			now += float64(i)
			done := s.Submit(a%(64<<30), write, now)
			if done < now {
				t.Fatalf("completion %v before submission %v", done, now)
			}
			if !write && done < now+minRead-1e-9 {
				t.Fatalf("read faster than CL+burst: %v", done-now)
			}
		}
		st := s.Stats()
		if st.Reads+st.Writes != uint64(len(addrs)) {
			t.Fatalf("lost accesses: %+v", st)
		}
		if st.RowHits+st.RowConflicts+st.RowClosed != uint64(len(addrs)) {
			t.Fatalf("row outcomes do not partition accesses: %+v", st)
		}
	})
}

// FuzzDecodeRoundTrip checks that distinct line addresses never collide in
// (channel, bank, row, column) space within the configured capacity.
func FuzzDecodeRoundTrip(f *testing.F) {
	f.Add(uint64(0), uint64(64))
	f.Add(uint64(1<<33), uint64(1<<34))
	f.Fuzz(func(t *testing.T, a, b uint64) {
		cfg := DefaultConfig()
		s := mustNew(cfg)
		a %= 64 << 30
		b %= 64 << 30
		la, lb := a/cache.LineBytes, b/cache.LineBytes
		if la == lb {
			return
		}
		da, db := s.decode(a), s.decode(b)
		// Two different lines must differ in channel, bank, row, or their
		// column position — encoded here as the full decode plus the
		// column residue.
		colA := (a / cache.LineBytes) % uint64(cfg.Channels*cfg.BankGroups*(cfg.RowBytes/cache.LineBytes))
		colB := (b / cache.LineBytes) % uint64(cfg.Channels*cfg.BankGroups*(cfg.RowBytes/cache.LineBytes))
		if da == db && colA == colB {
			t.Fatalf("lines %x and %x alias to the same location", a, b)
		}
	})
}
