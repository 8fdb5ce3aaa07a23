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

// TestPerBankObservationDoesNotPerturbTiming: enabling per-bank counting
// must leave every completion time and the aggregate stats bit-identical.
func TestPerBankObservationDoesNotPerturbTiming(t *testing.T) {
	off := mustNew(obsTestConfig())
	on := mustNew(obsTestConfig())
	on.EnableObs()
	dOff, dOn := drive(off), drive(on)
	for i := range dOff {
		if dOff[i] != dOn[i] {
			t.Fatalf("completion %d differs with observability on: %v vs %v", i, dOff[i], dOn[i])
		}
	}
	if off.Stats() != on.Stats() {
		t.Fatalf("stats differ:\noff %+v\non  %+v", off.Stats(), on.Stats())
	}
	if off.PerBankCounts() != nil {
		t.Fatal("disabled system must carry no per-bank state")
	}
}

// TestPerBankCountsConsistent: summed per-bank RD/WR/ACT must equal the
// aggregate statistics the simulator already reports.
func TestPerBankCountsConsistent(t *testing.T) {
	s := mustNew(obsTestConfig())
	s.EnableObs()
	drive(s)
	var rd, wr, act uint64
	banksSeen := 0
	for _, banks := range s.PerBankCounts() {
		for i := range banks {
			bc := banks[i]
			rd += bc.RD
			wr += bc.WR
			act += bc.ACT
			if bc.RD+bc.WR > 0 {
				banksSeen++
			}
		}
	}
	st := s.Stats()
	if rd != st.Reads || wr != st.Writes {
		t.Fatalf("per-bank rd/wr %d/%d, aggregate %d/%d", rd, wr, st.Reads, st.Writes)
	}
	if act != st.Activations {
		t.Fatalf("per-bank ACT %d, aggregate activations %d", act, st.Activations)
	}
	if banksSeen < 2 {
		t.Fatalf("interleaved pattern touched only %d banks", banksSeen)
	}
}
