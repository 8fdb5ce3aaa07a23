package cpu

import (
	"testing"

	"ntcsim/internal/rng"
	"ntcsim/internal/workload"
)

// fixedMem is a MemSystem with constant latency.
type fixedMem struct {
	latNs    float64
	requests int
	writes   int
}

func (m *fixedMem) Access(coreID int, addr uint64, write bool, nowNs float64) float64 {
	m.requests++
	if write {
		m.writes++
	}
	return nowNs + m.latNs
}

func (m *fixedMem) Warm(coreID int, addr uint64, write bool) {}

// aluProfile is a synthetic profile of pure independent ALU work.
func aluProfile() *workload.Profile {
	return &workload.Profile{
		Name: "test-alu", LoadFrac: 0, StoreFrac: 0, BranchFrac: 0, FPFrac: 0,
		DepGeomP:       0.0001, // essentially no close dependencies
		StaticBranches: 16, BranchZipf: 1, BiasAlpha: 1, BiasBeta: 1,
		CodeBytes: 4 << 10, CodeJumpP: 0, CodeZipfTheta: 1,
		DataBytes: 1 << 20, HotBytes: 16 << 10, HotFrac: 1, ColdZipf: 0.5,
	}
}

func newCore(t *testing.T, p *workload.Profile, mem MemSystem, freqHz float64, seed uint64) *Core {
	t.Helper()
	g := workload.NewGenerator(workload.NewPlan(p, 0, rng.New(seed)))
	c, err := New(DefaultConfig(), 0, g, mem, freqHz)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestIPCNeverExceedsWidth(t *testing.T) {
	for _, p := range workload.All() {
		c := newCore(t, p, &fixedMem{latNs: 80}, 2e9, 1)
		c.Run(20000)
		if ipc := c.Stats().IPC(); ipc > float64(c.cfg.Width) {
			t.Errorf("%s: IPC %.3f exceeds width %d", p.Name, ipc, c.cfg.Width)
		}
	}
}

func TestIndependentALUApproachesWidth(t *testing.T) {
	c := newCore(t, aluProfile(), &fixedMem{latNs: 80}, 2e9, 2)
	c.Run(10000) // warm the I-cache (cold misses dominate short runs)
	c.ResetStats()
	c.Run(50000)
	if ipc := c.Stats().IPC(); ipc < 2.8 {
		t.Fatalf("independent ALU IPC = %.3f, want near width 3", ipc)
	}
}

func TestDependencyChainSerializes(t *testing.T) {
	p := aluProfile()
	p.DepGeomP = 0.9999 // every instruction depends on its predecessor
	c := newCore(t, p, &fixedMem{latNs: 80}, 2e9, 3)
	c.Run(50000)
	if ipc := c.Stats().IPC(); ipc > 1.1 {
		t.Fatalf("serial chain IPC = %.3f, want ~1", ipc)
	}
}

func TestMispredictsReduceIPC(t *testing.T) {
	good := aluProfile()
	good.BranchFrac = 0.15
	good.BiasAlpha, good.BiasBeta = 0.05, 0.05 // strongly biased -> predictable

	bad := aluProfile()
	bad.BranchFrac = 0.15
	bad.BiasAlpha, bad.BiasBeta = 50, 50 // bias ~0.5 -> coin flips

	cg := newCore(t, good, &fixedMem{latNs: 80}, 2e9, 4)
	cb := newCore(t, bad, &fixedMem{latNs: 80}, 2e9, 4)
	cg.Run(50000)
	cb.Run(50000)
	sg, sb := cg.Stats(), cb.Stats()
	if sb.MispredictRate() < 5*sg.MispredictRate() {
		t.Fatalf("mispredict rates: good %.4f bad %.4f — generator bias broken",
			sg.MispredictRate(), sb.MispredictRate())
	}
	if sb.IPC() >= sg.IPC() {
		t.Fatalf("unpredictable branches should hurt IPC: %.3f vs %.3f", sb.IPC(), sg.IPC())
	}
}

func TestMemoryLatencyHurtsIPC(t *testing.T) {
	p := aluProfile()
	p.LoadFrac = 0.3
	p.HotFrac = 0         // all cold
	p.DataBytes = 1 << 30 // far beyond L1
	p.ColdZipf = 0        // uniform -> every load misses
	fast := newCore(t, p, &fixedMem{latNs: 20}, 2e9, 5)
	slow := newCore(t, p, &fixedMem{latNs: 200}, 2e9, 5)
	fast.Run(30000)
	slow.Run(30000)
	if slow.Stats().IPC() >= fast.Stats().IPC() {
		t.Fatalf("10x memory latency should hurt IPC: %.3f vs %.3f",
			slow.Stats().IPC(), fast.Stats().IPC())
	}
}

func TestUIPCExcludesOSInstructions(t *testing.T) {
	p := aluProfile()
	p.OSFrac = 0.3
	p.OSBurst = 200
	c := newCore(t, p, &fixedMem{latNs: 80}, 2e9, 6)
	c.Run(100000)
	s := c.Stats()
	if s.UserInstructions >= s.Instructions {
		t.Fatal("OS instructions must not count as user instructions")
	}
	frac := 1 - float64(s.UserInstructions)/float64(s.Instructions)
	if frac < 0.2 || frac > 0.4 {
		t.Fatalf("OS fraction realized = %.3f, want ~0.3", frac)
	}
	if s.UIPC() >= s.IPC() {
		t.Fatal("UIPC must be below IPC for OS-heavy workloads")
	}
}

func TestMLPThroughMSHRs(t *testing.T) {
	// A miss-heavy independent-load stream benefits from more MSHRs.
	p := aluProfile()
	p.LoadFrac = 0.4
	p.HotFrac = 0
	p.DataBytes = 2 << 30
	p.ColdZipf = 0
	cfgNarrow := DefaultConfig()
	cfgNarrow.MSHREntries = 1
	cfgWide := DefaultConfig()
	cfgWide.MSHREntries = 16

	gn := workload.NewGenerator(workload.NewPlan(p, 0, rng.New(7)))
	narrow, _ := New(cfgNarrow, 0, gn, &fixedMem{latNs: 150}, 2e9)
	gw := workload.NewGenerator(workload.NewPlan(p, 0, rng.New(7)))
	wide, _ := New(cfgWide, 0, gw, &fixedMem{latNs: 150}, 2e9)
	narrow.Run(30000)
	wide.Run(30000)
	if wide.Stats().IPC() <= narrow.Stats().IPC()*1.2 {
		t.Fatalf("16 MSHRs (%.3f IPC) should clearly beat 1 MSHR (%.3f IPC)",
			wide.Stats().IPC(), narrow.Stats().IPC())
	}
}

func TestUIPCRisesAsFrequencyDrops(t *testing.T) {
	// The central mechanism of the paper: memory latency is fixed in ns,
	// so cycles-per-miss shrink at low frequency and UIPC rises.
	p := workload.DataServing()
	uipcAt := func(hz float64) float64 {
		g := workload.NewGenerator(workload.NewPlan(p, 0, rng.New(8)))
		c, _ := New(DefaultConfig(), 0, g, &fixedMem{latNs: 120}, hz)
		c.Run(20000)
		c.ResetStats()
		c.Run(40000)
		return c.Stats().UIPC()
	}
	low := uipcAt(0.2e9)
	high := uipcAt(2e9)
	if low <= high*1.1 {
		t.Fatalf("UIPC at 200MHz (%.3f) should clearly exceed UIPC at 2GHz (%.3f)", low, high)
	}
}

func TestThroughputStillRisesWithFrequency(t *testing.T) {
	// UIPC rises as f drops, but UIPS = UIPC*f must still rise with f
	// (sublinearly) — otherwise the QoS analysis would be trivial.
	// Use an LLC-like 25ns backing latency: with a raw 120ns DRAM behind
	// the L1s (no LLC, as in this unit test), scale-out UIPS saturates —
	// which is realistic for that setup but not what this test probes.
	p := workload.WebSearch()
	uipsAt := func(hz float64) float64 {
		g := workload.NewGenerator(workload.NewPlan(p, 0, rng.New(9)))
		c, _ := New(DefaultConfig(), 0, g, &fixedMem{latNs: 25}, hz)
		c.Run(20000)
		c.ResetStats()
		c.Run(40000)
		return c.Stats().UIPC() * hz
	}
	if uipsAt(2e9) <= uipsAt(0.5e9) {
		t.Fatal("higher frequency must still deliver higher throughput")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Stats {
		g := workload.NewGenerator(workload.NewPlan(workload.WebServing(), 0, rng.New(10)))
		c, _ := New(DefaultConfig(), 0, g, &fixedMem{latNs: 90}, 1e9)
		c.Run(30000)
		return c.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("simulation not deterministic:\n%+v\n%+v", a, b)
	}
}

func TestFastForwardWarmsCaches(t *testing.T) {
	p := workload.WebSearch()
	cold := func() float64 {
		g := workload.NewGenerator(workload.NewPlan(p, 0, rng.New(11)))
		c, _ := New(DefaultConfig(), 0, g, &fixedMem{latNs: 90}, 1e9)
		c.Run(30000)
		return c.Stats().L1D.HitRate()
	}()
	warmed := func() float64 {
		g := workload.NewGenerator(workload.NewPlan(p, 0, rng.New(11)))
		c, _ := New(DefaultConfig(), 0, g, &fixedMem{latNs: 90}, 1e9)
		c.FastForward(200000, nil)
		c.ResetStats()
		c.Run(30000)
		return c.Stats().L1D.HitRate()
	}()
	if warmed <= cold {
		t.Fatalf("warming should raise L1D hit rate: cold %.3f warmed %.3f", cold, warmed)
	}
}

func TestFastForwardAdvancesTraceNotTime(t *testing.T) {
	g := workload.NewGenerator(workload.NewPlan(workload.WebSearch(), 0, rng.New(12)))
	c, _ := New(DefaultConfig(), 0, g, &fixedMem{latNs: 90}, 1e9)
	c.FastForward(1000, nil)
	if c.Cycle() != 0 {
		t.Fatalf("fast-forward must not advance the clock, cycle = %d", c.Cycle())
	}
	if c.Stats().Instructions != 1000 {
		t.Fatalf("instructions = %d", c.Stats().Instructions)
	}
}

func TestResetStatsKeepsPipelineState(t *testing.T) {
	g := workload.NewGenerator(workload.NewPlan(workload.WebSearch(), 0, rng.New(13)))
	c, _ := New(DefaultConfig(), 0, g, &fixedMem{latNs: 90}, 1e9)
	c.Run(10000)
	cyc := c.Cycle()
	c.ResetStats()
	if c.Cycle() != cyc {
		t.Fatal("ResetStats must not move the clock")
	}
	if c.Stats().Instructions != 0 {
		t.Fatal("ResetStats must clear counters")
	}
}

func TestWritebackTrafficGenerated(t *testing.T) {
	// A store-heavy thrashing workload must produce posted writes below L1.
	p := aluProfile()
	p.StoreFrac = 0.4
	p.HotFrac = 0
	p.DataBytes = 1 << 30
	p.ColdZipf = 0
	mem := &fixedMem{latNs: 90}
	c := newCore(t, p, mem, 1e9, 14)
	c.Run(30000)
	if mem.writes == 0 {
		t.Fatal("dirty evictions should reach the memory system")
	}
}

func TestConfigValidation(t *testing.T) {
	g := workload.NewGenerator(workload.NewPlan(aluProfile(), 0, rng.New(1)))
	if _, err := New(Config{Width: 0, WindowSize: 128}, 0, g, &fixedMem{}, 1e9); err == nil {
		t.Fatal("zero width should be rejected")
	}
	cfg := DefaultConfig()
	cfg.WindowSize = 100 // not a power of two
	if _, err := New(cfg, 0, g, &fixedMem{}, 1e9); err == nil {
		t.Fatal("non-power-of-two window should be rejected")
	}
	if _, err := New(DefaultConfig(), 0, g, &fixedMem{}, 0); err == nil {
		t.Fatal("zero frequency should be rejected")
	}
}

func TestWindowLimitsMLP(t *testing.T) {
	// With a tiny window, distant independent misses cannot overlap.
	p := aluProfile()
	p.LoadFrac = 0.1 // misses spaced ~10 instructions apart
	p.HotFrac = 0
	p.DataBytes = 2 << 30
	p.ColdZipf = 0
	small := DefaultConfig()
	small.WindowSize = 8
	large := DefaultConfig()
	large.WindowSize = 256

	gs := workload.NewGenerator(workload.NewPlan(p, 0, rng.New(15)))
	cs, _ := New(small, 0, gs, &fixedMem{latNs: 200}, 2e9)
	gl := workload.NewGenerator(workload.NewPlan(p, 0, rng.New(15)))
	cl, _ := New(large, 0, gl, &fixedMem{latNs: 200}, 2e9)
	cs.Run(30000)
	cl.Run(30000)
	if cl.Stats().IPC() <= cs.Stats().IPC() {
		t.Fatalf("256-entry window (%.3f) should beat 8-entry (%.3f)",
			cl.Stats().IPC(), cs.Stats().IPC())
	}
}

func BenchmarkCoreStep(b *testing.B) {
	g := workload.NewGenerator(workload.NewPlan(workload.DataServing(), 0, rng.New(1)))
	c, _ := New(DefaultConfig(), 0, g, &fixedMem{latNs: 90}, 1e9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Step()
	}
}

func BenchmarkCoreFastForward(b *testing.B) {
	g := workload.NewGenerator(workload.NewPlan(workload.DataServing(), 0, rng.New(1)))
	c, _ := New(DefaultConfig(), 0, g, &fixedMem{latNs: 90}, 1e9)
	b.ResetTimer()
	c.FastForward(uint64(b.N), nil)
}

func TestStridePrefetcherHelpsStreaming(t *testing.T) {
	// A pure streaming loop: the prefetcher should lift IPC markedly.
	p := aluProfile()
	p.LoadFrac = 0.3
	p.StackFrac, p.HotFrac = 0, 0
	p.StreamFrac = 1.0
	p.DataBytes = 1 << 30

	run := func(pf bool) float64 {
		cfg := DefaultConfig()
		cfg.StridePrefetch = pf
		g := workload.NewGenerator(workload.NewPlan(p, 0, rng.New(77)))
		c, _ := New(cfg, 0, g, &fixedMem{latNs: 100}, 2e9)
		c.Run(20000)
		c.ResetStats()
		c.Run(50000)
		return c.Stats().IPC()
	}
	off := run(false)
	on := run(true)
	if on <= off*1.1 {
		t.Fatalf("prefetcher should help streaming: off %.3f on %.3f", off, on)
	}
}

func TestStridePrefetcherCountsTraffic(t *testing.T) {
	p := aluProfile()
	p.LoadFrac = 0.3
	p.StackFrac, p.HotFrac = 0, 0
	p.StreamFrac = 1.0
	p.DataBytes = 1 << 30
	cfg := DefaultConfig()
	cfg.StridePrefetch = true
	mem := &fixedMem{latNs: 100}
	g := workload.NewGenerator(workload.NewPlan(p, 0, rng.New(78)))
	c, _ := New(cfg, 0, g, mem, 2e9)
	c.Run(30000)
	if c.Stats().Prefetches == 0 {
		t.Fatal("streaming should trigger prefetches")
	}
	if uint64(mem.requests) < c.Stats().Prefetches {
		t.Fatal("prefetch traffic must reach the memory system")
	}
}

func TestPrefetcherOffByDefault(t *testing.T) {
	if DefaultConfig().StridePrefetch {
		t.Fatal("the paper-calibrated configuration has no prefetcher")
	}
}

func TestPortLimitsConstrainIssue(t *testing.T) {
	// A load-heavy stream: with a single memory port, IPC cannot exceed
	// 1/loadFraction even if everything hits the L1.
	p := aluProfile()
	p.LoadFrac = 0.5
	cfgUnified := DefaultConfig()
	cfgPorts := DefaultConfig()
	cfgPorts.Ports = A57Ports() // Mem: 1

	gu := workload.NewGenerator(workload.NewPlan(p, 0, rng.New(91)))
	unified, _ := New(cfgUnified, 0, gu, &fixedMem{latNs: 30}, 1e9)
	gp := workload.NewGenerator(workload.NewPlan(p, 0, rng.New(91)))
	ported, _ := New(cfgPorts, 0, gp, &fixedMem{latNs: 30}, 1e9)

	unified.Run(10000)
	unified.ResetStats()
	unified.Run(40000)
	ported.Run(10000)
	ported.ResetStats()
	ported.Run(40000)

	if ported.Stats().IPC() >= unified.Stats().IPC() {
		t.Fatalf("port limits should constrain a load-heavy stream: ported %.3f vs unified %.3f",
			ported.Stats().IPC(), unified.Stats().IPC())
	}
	// The memory port is the binding constraint: IPC <= Mem/loadFrac = 2.
	if ipc := ported.Stats().IPC(); ipc > 2.01 {
		t.Fatalf("single memory port caps IPC at 2 for 50%% loads, got %.3f", ipc)
	}
}

func TestPortLimitsNilMatchesUnified(t *testing.T) {
	// The default (nil Ports) must reproduce the calibrated behavior.
	if DefaultConfig().Ports != nil {
		t.Fatal("paper-calibrated configuration must not constrain ports")
	}
	pc := A57Ports()
	if pc.Int+pc.Mem+pc.FP < 3 {
		t.Fatal("A57 port split should provide at least machine width")
	}
}

func TestStallAttributionShapes(t *testing.T) {
	// A memory-thrashing stream must be dominated by memory stalls; a
	// serial ALU chain by dependency stalls.
	memHeavy := aluProfile()
	memHeavy.LoadFrac = 0.4
	memHeavy.StackFrac, memHeavy.HotFrac = 0, 0
	memHeavy.DataBytes = 2 << 30
	memHeavy.ColdZipf = 0

	serial := aluProfile()
	serial.DepGeomP = 0.9999

	run := func(p *workload.Profile) Stats {
		g := workload.NewGenerator(workload.NewPlan(p, 0, rng.New(71)))
		c, _ := New(DefaultConfig(), 0, g, &fixedMem{latNs: 150}, 2e9)
		c.Run(10000)
		c.ResetStats()
		c.Run(40000)
		return c.Stats()
	}
	m := run(memHeavy)
	if m.MemStall == 0 || m.MemStall < m.DepStall {
		t.Fatalf("thrashing loads should be memory-dominated: %+v", m)
	}
	sl := run(serial)
	if sl.DepStall == 0 || sl.DepStall < sl.MemStall {
		t.Fatalf("serial chain should be dependency-dominated: mem %d dep %d",
			sl.MemStall, sl.DepStall)
	}
}

func TestStallCountersResetWithStats(t *testing.T) {
	g := workload.NewGenerator(workload.NewPlan(workload.DataServing(), 0, rng.New(72)))
	c, _ := New(DefaultConfig(), 0, g, &fixedMem{latNs: 90}, 1e9)
	c.Run(20000)
	if s := c.Stats(); s.FrontendStall == 0 && s.MemStall == 0 {
		t.Fatal("data-serving should accumulate stalls")
	}
	c.ResetStats()
	s := c.Stats()
	if s.FrontendStall != 0 || s.ROBStall != 0 || s.DepStall != 0 ||
		s.IssueStall != 0 || s.MemStall != 0 {
		t.Fatalf("ResetStats should clear stall counters: %+v", s)
	}
}
