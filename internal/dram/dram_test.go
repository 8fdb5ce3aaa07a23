package dram

import (
	"math"
	"testing"
	"testing/quick"

	"ntcsim/internal/cache"
)

// Address-stride helpers for the group-interleaved mapping
// [offset][channel][bankgroup][column][bank-in-group][rank][row].
func strideSameRow(cfg Config) uint64 { // next column, same bank+row
	return uint64(cache.LineBytes * cfg.Channels * cfg.BankGroups)
}

func strideNextGroup(cfg Config) uint64 { // next bank group, same channel
	return uint64(cache.LineBytes * cfg.Channels)
}

func strideNextBankInGroup(cfg Config) uint64 { // same group, next bank
	return strideSameRow(cfg) * uint64(cfg.RowBytes/cache.LineBytes)
}

func strideNewRow(cfg Config) uint64 { // same bank, different row
	return strideNextBankInGroup(cfg) * uint64(cfg.BanksPerRank/cfg.BankGroups) * uint64(cfg.RanksPerChan)
}

func TestTableIEnergies(t *testing.T) {
	// Table I: power of an 8x 4Gbit DDR4 chip at 1.6GHz.
	e := DDR4Power().Energies(DDR4(), 8)
	cases := []struct {
		name string
		got  float64
		want float64
	}{
		{"E_IDLE nJ/cycle", e.IdlePerCycleNJ, 0.0728},
		{"E_READ nJ/byte", e.ReadPerByteNJ, 0.2566},
		{"E_WRITE nJ/byte", e.WritePerByteNJ, 0.2495},
	}
	for _, c := range cases {
		if math.Abs(c.got-c.want)/c.want > 0.01 {
			t.Errorf("%s = %.4f, want %.4f (±1%%)", c.name, c.got, c.want)
		}
	}
}

// mustNew is New for the known-good configurations of these tests.
func mustNew(cfg Config) *System {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// peakBandwidth returns the aggregate peak bandwidth in bytes/s: two
// transfers per clock over each channel's 8-byte bus.
func peakBandwidth(c Config) float64 {
	return (1e9 / c.Timing.TCKNs) * 2 * 8 * float64(c.Channels)
}

func TestPaperMemoryOrganization(t *testing.T) {
	cfg := DefaultConfig()
	// "the server's total memory capacity is 64GB"
	if got := cfg.TotalBytes(); got != 64<<30 {
		t.Fatalf("capacity = %d, want 64GB", got)
	}
	// "peak bandwidth of 25.6GB/s per channel"
	perChan := peakBandwidth(cfg) / float64(cfg.Channels)
	if math.Abs(perChan-25.6e9) > 1e6 {
		t.Fatalf("per-channel peak = %.2f GB/s, want 25.6", perChan/1e9)
	}
}

func TestLPDDR4LowerBackgroundPower(t *testing.T) {
	// The discussion-section premise: mobile DRAM has much lower background
	// power at comparable active energy.
	ddr4 := DDR4Power().Energies(DDR4(), 8)
	lp := LPDDR4Power().Energies(LPDDR4(), 8)
	if lp.BackgroundPower(16) >= ddr4.BackgroundPower(16)/3 {
		t.Fatalf("LPDDR4 background %.3fW should be well below DDR4 %.3fW",
			lp.BackgroundPower(16), ddr4.BackgroundPower(16))
	}
	if lp.ReadPerByteNJ > 2*ddr4.ReadPerByteNJ {
		t.Fatal("LPDDR4 active energy should be comparable to DDR4")
	}
}

func TestPowerScalesWithBandwidth(t *testing.T) {
	e := DDR4Power().Energies(DDR4(), 8)
	idle := e.Power(16, 0, 0)
	busy := e.Power(16, 10e9, 5e9)
	if busy <= idle {
		t.Fatal("power must grow with bandwidth")
	}
	want := idle + 10e9*e.ReadPerByteNJ*1e-9 + 5e9*e.WritePerByteNJ*1e-9
	if math.Abs(busy-want) > 1e-9 {
		t.Fatalf("power = %v, want %v (paper's scaling rule)", busy, want)
	}
}

func TestIdleReadLatency(t *testing.T) {
	// An isolated read to a precharged bank costs tRCD + tCL + burst.
	s := mustNew(DefaultConfig())
	tm := s.cfg.Timing
	done := s.Submit(0, false, 1000)
	want := 1000 + float64(tm.RCD+tm.CL)*tm.TCKNs + tm.BurstNs()
	if math.Abs(done-want) > 1e-9 {
		t.Fatalf("idle read completes at %v, want %v", done, want)
	}
	st := s.Stats()
	if st.Reads != 1 || st.RowClosed != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestRowHitFasterThanConflict(t *testing.T) {
	cfg := DefaultConfig()
	s := mustNew(cfg)
	// First access opens a row.
	s.Submit(0, false, 0)
	// Same row: next column of the same bank.
	stride := strideSameRow(cfg)
	hitStart := 10000.0
	hitDone := s.Submit(stride, false, hitStart)

	s2 := mustNew(cfg)
	s2.Submit(0, false, 0)
	// Same bank, different row.
	confDone := s2.Submit(strideNewRow(cfg), false, hitStart)

	if hitDone >= confDone {
		t.Fatalf("row hit (%.2fns) should beat row conflict (%.2fns)",
			hitDone-hitStart, confDone-hitStart)
	}
	if got := s.Stats().RowHits; got != 1 {
		t.Fatalf("row hits = %d, want 1", got)
	}
	if got := s2.Stats().RowConflicts; got != 1 {
		t.Fatalf("row conflicts = %d, want 1", got)
	}
}

func TestRowConflictLatency(t *testing.T) {
	// Conflict on a long-open row: tRP + tRCD + tCL + burst.
	cfg := DefaultConfig()
	s := mustNew(cfg)
	tm := cfg.Timing
	s.Submit(0, false, 0)
	start := 10000.0 // all timers (tRAS, tRTP) long expired
	done := s.Submit(strideNewRow(cfg), false, start)
	want := start + float64(tm.RP+tm.RCD+tm.CL)*tm.TCKNs + tm.BurstNs()
	if math.Abs(done-want) > 1e-9 {
		t.Fatalf("conflict completes at %v, want %v", done, want)
	}
}

func TestBankParallelismBeatsSameBank(t *testing.T) {
	cfg := DefaultConfig()
	// Two simultaneous closed-bank reads to different banks overlap their
	// activations; to the same bank's different rows they serialize.
	par := mustNew(cfg)
	par.Submit(0, false, 0)
	parDone := par.Submit(strideNextGroup(cfg), false, 0)

	ser := mustNew(cfg)
	ser.Submit(0, false, 0)
	serDone := ser.Submit(strideNewRow(cfg), false, 0)

	if parDone >= serDone {
		t.Fatalf("bank-parallel second read (%.2f) should beat same-bank (%.2f)", parDone, serDone)
	}
}

func TestChannelInterleaving(t *testing.T) {
	cfg := DefaultConfig()
	s := mustNew(cfg)
	// Consecutive lines land on consecutive channels: four simultaneous
	// reads complete at the same time (no shared resources).
	var done [4]float64
	for i := 0; i < 4; i++ {
		done[i] = s.Submit(uint64(i*cache.LineBytes), false, 0)
	}
	for i := 1; i < 4; i++ {
		if done[i] != done[0] {
			t.Fatalf("channel-interleaved reads should not contend: %v vs %v", done[i], done[0])
		}
	}
}

func TestDataBusSerialization(t *testing.T) {
	cfg := DefaultConfig()

	// Same-bank-group row hits are bound by tCCD_L (8 clocks = 5ns).
	s := mustNew(cfg)
	stride := strideSameRow(cfg)
	s.Submit(0, false, 0)
	var prev float64
	for i := 1; i < 10; i++ {
		done := s.Submit(uint64(i)*stride, false, 0)
		if i > 1 {
			gap := done - prev
			want := float64(cfg.Timing.CCD) * cfg.Timing.TCKNs
			if math.Abs(gap-want) > 1e-9 {
				t.Fatalf("same-group gap %d = %.3fns, want tCCD_L %.3f", i, gap, want)
			}
		}
		prev = done
	}

	// Group-interleaved streams pipeline at the burst rate (tCCD_S = 4
	// clocks = one 2.5ns burst) — the full bus bandwidth.
	s2 := mustNew(cfg)
	stride2 := strideNextGroup(cfg)
	s2.Submit(0, false, 0)
	prev = 0
	for i := 1; i < 10; i++ {
		done := s2.Submit(uint64(i%cfg.BankGroups)*stride2+uint64(i/cfg.BankGroups)*strideSameRow(cfg), false, 0)
		if i > 1 {
			gap := done - prev
			want := cfg.Timing.BurstNs()
			if math.Abs(gap-want) > 1e-9 {
				t.Fatalf("cross-group gap %d = %.3fns, want burst %.3f", i, gap, want)
			}
		}
		prev = done
	}
}

func TestSustainedBandwidthBelowPeak(t *testing.T) {
	cfg := DefaultConfig()
	s := mustNew(cfg)
	// Stream 4096 lines across all channels back-to-back.
	const n = 4096
	var last float64
	for i := 0; i < n; i++ {
		last = s.Submit(uint64(i*cache.LineBytes), false, 0)
	}
	bytes := float64(n * cache.LineBytes)
	bw := bytes / (last * 1e-9)
	peak := peakBandwidth(cfg)
	if bw > peak {
		t.Fatalf("sustained %.1f GB/s exceeds peak %.1f GB/s", bw/1e9, peak/1e9)
	}
	if bw < 0.3*peak {
		t.Fatalf("sustained %.1f GB/s too far below peak %.1f GB/s for streaming", bw/1e9, peak/1e9)
	}
}

func TestWriteReadTurnaroundPenalty(t *testing.T) {
	cfg := DefaultConfig()
	sameDir := mustNew(cfg)
	stride := strideSameRow(cfg)
	sameDir.Submit(0, false, 0)
	rr := sameDir.Submit(stride, false, 0)

	flip := mustNew(cfg)
	flip.Submit(0, true, 0)
	wr := flip.Submit(stride, false, 0)
	if wr <= rr {
		t.Fatalf("write->read (%.2f) should be slower than read->read (%.2f)", wr, rr)
	}
}

func TestRefreshBlocksRank(t *testing.T) {
	cfg := DefaultConfig()
	s := mustNew(cfg)
	tm := cfg.Timing
	// Submit a read just inside rank 0's first refresh window.
	start := s.refreshPhaseNs(0)
	done := s.Submit(0, false, start+1)
	if s.Stats().RefreshStallsNs == 0 {
		t.Fatal("read during refresh should record a stall")
	}
	minDone := start + float64(tm.RFC)*tm.TCKNs
	if done < minDone {
		t.Fatalf("read completed at %v, before refresh window end %v", done, minDone)
	}
}

func TestRefreshClosesRows(t *testing.T) {
	cfg := DefaultConfig()
	s := mustNew(cfg)
	s.Submit(0, false, 0) // opens a row
	// After the rank's refresh window the row must be closed again.
	s.Submit(0, false, s.refreshPhaseNs(0)+1)
	st := s.Stats()
	if st.RowHits != 0 {
		t.Fatalf("access after refresh should not be a row hit: %+v", st)
	}
}

func TestTFAWLimitsActivationBurst(t *testing.T) {
	cfg := DefaultConfig()
	s := mustNew(cfg)
	tm := cfg.Timing
	// Five closed-bank reads to distinct banks of the same rank at t=0:
	// one per bank group, then a second bank of group 0. The 5th
	// activation must wait for the tFAW window.
	addrs := []uint64{
		0,
		strideNextGroup(cfg),
		2 * strideNextGroup(cfg),
		3 * strideNextGroup(cfg),
		strideNextBankInGroup(cfg),
	}
	var first, fifth float64
	for i, a := range addrs {
		done := s.Submit(a, false, 0)
		if i == 0 {
			first = done
		}
		if i == 4 {
			fifth = done
		}
	}
	// ACTs 0..3 are spaced by tRRD; ACT 4 is pushed to ACT0 + tFAW.
	wantGap := float64(tm.FAW)*tm.TCKNs - 0 // relative to first ACT at ~0
	gotGap := fifth - first
	if gotGap < wantGap-float64(3*tm.RRD)*tm.TCKNs {
		t.Fatalf("5th activation gap %.2fns too small for tFAW %.2fns", gotGap, wantGap)
	}
	if fifth <= first+3*float64(tm.RRD)*tm.TCKNs {
		t.Fatal("5th read should be delayed beyond pure tRRD spacing")
	}
}

func TestTRRDSpacesActivations(t *testing.T) {
	cfg := DefaultConfig()
	s := mustNew(cfg)
	tm := cfg.Timing
	// Same bank group: tRRD_L applies.
	d0 := s.Submit(0, false, 0)
	d1 := s.Submit(strideNextBankInGroup(cfg), false, 0)
	want := float64(tm.RRD) * tm.TCKNs
	if math.Abs((d1-d0)-want) > 1e-9 {
		t.Fatalf("same-group ACT spacing = %.3fns, want tRRD_L %.3f", d1-d0, want)
	}
	// Different bank group: the shorter tRRD_S applies.
	s2 := mustNew(cfg)
	e0 := s2.Submit(0, false, 0)
	e1 := s2.Submit(strideNextGroup(cfg), false, 0)
	wantS := float64(tm.RRDS) * tm.TCKNs
	if math.Abs((e1-e0)-wantS) > 1e-9 {
		t.Fatalf("cross-group ACT spacing = %.3fns, want tRRD_S %.3f", e1-e0, wantS)
	}
}

func TestStatsAccounting(t *testing.T) {
	cfg := DefaultConfig()
	s := mustNew(cfg)
	s.Submit(0, false, 0)
	s.Submit(64, true, 100)
	st := s.Stats()
	if st.Reads != 1 || st.Writes != 1 {
		t.Fatalf("reads/writes = %d/%d", st.Reads, st.Writes)
	}
	if st.BytesRead != 64 || st.BytesWritten != 64 {
		t.Fatalf("bytes = %d/%d", st.BytesRead, st.BytesWritten)
	}
	total := st.RowHits + st.RowConflicts + st.RowClosed
	if total != 2 {
		t.Fatalf("row outcomes %d != accesses 2", total)
	}
}

func TestTimeMonotonicityEnforced(t *testing.T) {
	s := mustNew(DefaultConfig())
	s.Submit(0, false, 100)
	defer func() {
		if recover() == nil {
			t.Fatal("going back in time should panic")
		}
	}()
	s.Submit(0, false, 50)
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Channels = 0 },
		func(c *Config) { c.Channels = 3 },
		func(c *Config) { c.RanksPerChan = 0 },
		func(c *Config) { c.BanksPerRank = 5 },
		func(c *Config) { c.RowBytes = 0 },
		func(c *Config) { c.RowBytes = 100 },
		func(c *Config) { c.Timing.TCKNs = 0 },
		func(c *Config) { c.BankGroups = 0 },
		func(c *Config) { c.BankGroups = 3 },  // does not divide 16
		func(c *Config) { c.BankGroups = 32 }, // more groups than banks
	}
	for i, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestQuickCompletionAfterSubmission(t *testing.T) {
	cfg := DefaultConfig()
	s := mustNew(cfg)
	now := 0.0
	minLat := float64(cfg.Timing.CL)*cfg.Timing.TCKNs + cfg.Timing.BurstNs()
	err := quick.Check(func(addr uint64, write bool, dt uint16) bool {
		now += float64(dt) / 10
		done := s.Submit(addr%(64<<30), write, now)
		if write {
			return done > now
		}
		return done >= now+minLat-1e-9
	}, &quick.Config{MaxCount: 2000})
	if err != nil {
		t.Fatal(err)
	}
}

func TestQuickRowOutcomesSumToAccesses(t *testing.T) {
	cfg := DefaultConfig()
	s := mustNew(cfg)
	now := 0.0
	n := uint64(0)
	err := quick.Check(func(addr uint64, write bool) bool {
		now += 3
		s.Submit(addr%(64<<30), write, now)
		n++
		st := s.Stats()
		return st.RowHits+st.RowConflicts+st.RowClosed == n &&
			st.Reads+st.Writes == n
	}, &quick.Config{MaxCount: 2000})
	if err != nil {
		t.Fatal(err)
	}
}

func TestQuickBusNeverExceedsPeak(t *testing.T) {
	// Whatever the access pattern, delivered bandwidth on one channel can
	// never exceed the peak.
	cfg := DefaultConfig()
	cfg.Channels = 1
	s := mustNew(cfg)
	var last float64
	count := 0
	err := quick.Check(func(addr uint64) bool {
		done := s.Submit(addr%(16<<30), false, 0)
		if done > last {
			last = done
		}
		count++
		bw := float64(count*cache.LineBytes) / (last * 1e-9)
		return bw <= peakBandwidth(cfg)*(1+1e-9)
	}, &quick.Config{MaxCount: 1000})
	if err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSubmitStreaming(b *testing.B) {
	cfg := DefaultConfig()
	s := mustNew(cfg)
	now := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 2
		s.Submit(uint64(i*64)%(64<<30), i%4 == 0, now)
	}
}

func BenchmarkSubmitRandom(b *testing.B) {
	cfg := DefaultConfig()
	s := mustNew(cfg)
	now := 0.0
	addr := uint64(12345)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr = addr*6364136223846793005 + 1442695040888963407
		now += 5
		s.Submit(addr%(64<<30), false, now)
	}
}

func TestRefreshDutyCycle(t *testing.T) {
	// Over a long quiet period, each rank is unavailable for tRFC out of
	// every tREFI. Probe rank 0 just after each expected window and count
	// recorded stalls: the average stall per window ~ tRFC/2 for uniform
	// arrivals inside the window, tRFC total per window if we always land
	// at its start.
	cfg := DefaultConfig()
	s := mustNew(cfg)
	tm := cfg.Timing
	refi := float64(tm.REFI) * tm.TCKNs
	rfc := float64(tm.RFC) * tm.TCKNs
	phase := s.refreshPhaseNs(0)
	const windows = 20
	for k := 0; k < windows; k++ {
		// Land exactly at the start of window k: full tRFC stall each time.
		s.Submit(0, false, phase+float64(k)*refi)
	}
	st := s.Stats()
	want := float64(windows) * rfc
	if st.RefreshStallsNs < want*0.99 || st.RefreshStallsNs > want*1.01 {
		t.Fatalf("refresh stalls = %.0fns over %d windows, want ~%.0f",
			st.RefreshStallsNs, windows, want)
	}
}
