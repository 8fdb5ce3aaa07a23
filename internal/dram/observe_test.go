package dram

import (
	"testing"

	"ntcsim/internal/cache"
)

// obsTestConfig is a small system so per-bank assertions stay readable.
func obsTestConfig() Config {
	cfg := DefaultConfig()
	cfg.Channels = 2
	cfg.RanksPerChan = 1
	cfg.BanksPerRank = 4
	cfg.BankGroups = 2
	return cfg
}

// drive replays a fixed access pattern and returns completion times.
func drive(s *System) []float64 {
	cfg := s.cfg
	var done []float64
	now := 0.0
	for i := 0; i < 400; i++ {
		// Mix of sequential lines (channel/group interleave), same-row
		// hits and row conflicts.
		addr := uint64(i) * uint64(cache.LineBytes)
		if i%7 == 0 {
			addr += strideNewRow(cfg) * uint64(i%3)
		}
		d := s.Submit(addr, i%4 == 0, now)
		now += 3.0
		if d > now {
			now = d
		}
		done = append(done, d)
	}
	return done
}

// TestPerBankCountsResetWithStats: the per-bank counts are window
// statistics; ResetStats clears them with the aggregate counters, and
// the next window's counts sum to that window's statistics alone.
func TestPerBankCountsResetWithStats(t *testing.T) {
	s := mustNew(obsTestConfig())
	drive(s)
	s.ResetStats()
	if sum := bankSum(s); sum != (BankCommandCounts{}) {
		t.Fatalf("ResetStats kept per-bank counts %+v", sum)
	}
	// A second pass over the same rows, now open: a window of its own.
	now := s.lastNowNs
	for i := 0; i < 50; i++ {
		now = s.Submit(uint64(i)*uint64(cache.LineBytes), i%3 == 0, now)
	}
	st, sum := s.Stats(), bankSum(s)
	if sum.RD != st.Reads || sum.WR != st.Writes || sum.ACT != st.Activations || sum.PRE != st.RowConflicts {
		t.Fatalf("window's per-bank sums %+v, window's stats %+v", sum, st)
	}
}

// bankSum sums s's per-bank counts over every bank.
func bankSum(s *System) BankCommandCounts {
	var sum BankCommandCounts
	for ch := range s.cfg.Channels {
		for b := range s.cfg.RanksPerChan * s.cfg.BanksPerRank {
			bc := s.BankCounts(ch, b)
			sum.ACT += bc.ACT
			sum.PRE += bc.PRE
			sum.RD += bc.RD
			sum.WR += bc.WR
		}
	}
	return sum
}

// TestPerBankCountsConsistent: summed per-bank RD/WR/ACT/PRE must equal
// the aggregate statistics the simulator already reports.
func TestPerBankCountsConsistent(t *testing.T) {
	s := mustNew(obsTestConfig())
	drive(s)
	banksSeen := 0
	for ch := range s.cfg.Channels {
		for b := range s.cfg.RanksPerChan * s.cfg.BanksPerRank {
			if bc := s.BankCounts(ch, b); bc.RD+bc.WR > 0 {
				banksSeen++
			}
		}
	}
	sum, st := bankSum(s), s.Stats()
	if sum.RD != st.Reads || sum.WR != st.Writes {
		t.Fatalf("per-bank rd/wr %d/%d, aggregate %d/%d", sum.RD, sum.WR, st.Reads, st.Writes)
	}
	if sum.ACT != st.Activations || sum.PRE != st.RowConflicts {
		t.Fatalf("per-bank ACT/PRE %d/%d, aggregate activations/conflicts %d/%d", sum.ACT, sum.PRE, st.Activations, st.RowConflicts)
	}
	if banksSeen < 2 {
		t.Fatalf("interleaved pattern touched only %d banks", banksSeen)
	}
}
