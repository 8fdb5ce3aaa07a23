package dram

import (
	"math"
	"testing"

	"ntcsim/internal/cache"
)

func TestEventEnergiesConsistentWithTableI(t *testing.T) {
	e := DDR4Power().Energies(DDR4(), 8)
	ev := e.Events(0.95)
	if ev.ReadColNJ <= 0 || ev.WriteColNJ <= 0 || ev.ActNJ <= 0 {
		t.Fatalf("non-positive event energies: %+v", ev)
	}
	// At the reference row-hit rate, event accounting reconstructs the
	// per-byte figure exactly.
	perLine := ev.ReadColNJ + 0.05*ev.ActNJ
	want := e.ReadPerByteNJ * 64
	if math.Abs(perLine-want) > 1e-9 {
		t.Fatalf("reconstructed per-line read energy %.3f nJ, want %.3f", perLine, want)
	}
}

func TestEventPowerMatchesScalingForStreaming(t *testing.T) {
	// Streaming traffic (high row-hit) is the regime the Table I scaling
	// rule represents: event accounting must agree within a few percent.
	cfg := DefaultConfig()
	s := mustNew(cfg)
	var last float64
	const n = 20000
	for i := 0; i < n; i++ {
		last = s.Submit(uint64(i*cache.LineBytes), false, 0)
	}
	st := s.Stats()
	if st.RowHitRate() < 0.9 {
		t.Fatalf("streaming row-hit rate = %.2f, expected high", st.RowHitRate())
	}
	e := cfg.Power.Energies(cfg.Timing, cfg.ChipsPerRank)
	scaling := s.Power(last)
	event := e.Events(0.95).EventPower(st, s.Ranks(), last)
	if math.Abs(event-scaling)/scaling > 0.05 {
		t.Fatalf("streaming: event %.2fW vs scaling %.2fW, want within 5%%", event, scaling)
	}
}

func TestEventPowerExceedsScalingForRandomTraffic(t *testing.T) {
	// Random traffic activates a row per access; the bandwidth-scaling
	// rule (calibrated for streaming) underestimates its energy — the
	// cross-validation result the event model exists to expose.
	cfg := DefaultConfig()
	s := mustNew(cfg)
	addr := uint64(12345)
	now := 0.0
	var last float64
	const n = 20000
	for i := 0; i < n; i++ {
		addr = addr*6364136223846793005 + 1442695040888963407
		now += 10
		d := s.Submit(addr%(64<<30), false, now)
		if d > last {
			last = d
		}
	}
	st := s.Stats()
	if st.RowHitRate() > 0.3 {
		t.Fatalf("random row-hit rate = %.2f, expected low", st.RowHitRate())
	}
	e := cfg.Power.Energies(cfg.Timing, cfg.ChipsPerRank)
	scaling := s.Power(last)
	event := e.Events(0.95).EventPower(st, s.Ranks(), last)
	if event <= scaling {
		t.Fatalf("random traffic: event %.2fW should exceed scaling %.2fW", event, scaling)
	}
}

func TestActiveEnergyAccumulates(t *testing.T) {
	e := DDR4Power().Energies(DDR4(), 8)
	ev := e.Events(0.95)
	st := Stats{Reads: 100, Writes: 50, Activations: 30}
	got := ev.ActiveEnergyJ(st)
	want := 1e-9 * (100*ev.ReadColNJ + 50*ev.WriteColNJ + 30*ev.ActNJ)
	if math.Abs(got-want) > 1e-18 {
		t.Fatalf("energy = %v, want %v", got, want)
	}
	if ev.EventPower(st, 16, 0) != 0 {
		t.Fatal("zero-duration window should report zero power")
	}
}
