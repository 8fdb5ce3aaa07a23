package sim

import (
	"testing"

	"ntcsim/internal/cache"
	"ntcsim/internal/workload"
)

// newTestCluster builds a cluster with a short warmup already applied.
func newTestCluster(t *testing.T, p *workload.Profile, freqHz float64) *Cluster {
	t.Helper()
	cl, err := NewCluster(DefaultConfig(), p, freqHz)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func TestClusterConstruction(t *testing.T) {
	cl := newTestCluster(t, workload.WebSearch(), 1e9)
	if cl.Cores() != 4 {
		t.Fatalf("cores = %d, want 4", cl.Cores())
	}
	if cl.Profile().Name != "web-search" {
		t.Fatal("profile mismatch")
	}
	if cl.freqHz != 1e9 {
		t.Fatal("frequency mismatch")
	}
}

func TestConfigValidation(t *testing.T) {
	for i, mutate := range []func(*Config){
		func(c *Config) { c.CoresPerCluster = 0 },
		func(c *Config) { c.LLC.Banks = 0 },
		func(c *Config) { c.LLC.Banks = 3 },
		func(c *Config) { c.DRAM.Channels = 3 },
		func(c *Config) { c.LLC.CapacityBytes = 0 },
	} {
		cfg := DefaultConfig()
		mutate(&cfg)
		if _, err := NewCluster(cfg, workload.WebSearch(), 1e9); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestMeasurementBasics(t *testing.T) {
	cl := newTestCluster(t, workload.WebSearch(), 1e9)
	cl.FastForward(50000)
	cl.Run(20000)
	m := cl.Measure(30000)
	if m.Instructions == 0 || m.UserInstructions == 0 {
		t.Fatalf("no instructions measured: %+v", m)
	}
	if m.UserInstructions > m.Instructions {
		t.Fatal("user instructions exceed total")
	}
	if m.UIPC() <= 0 || m.UIPC() > float64(4*3) {
		t.Fatalf("cluster UIPC = %v out of range", m.UIPC())
	}
	if m.UIPS() != m.UIPC()*1e9 {
		t.Fatal("UIPS must be UIPC * frequency")
	}
	if m.DurationNs != 30000 {
		t.Fatalf("duration = %v ns, want 30000 (1GHz, 30k cycles)", m.DurationNs)
	}
	if len(m.PerCore) != 4 {
		t.Fatalf("per-core stats = %d", len(m.PerCore))
	}
}

func TestLLCFiltersDRAMTraffic(t *testing.T) {
	cl := newTestCluster(t, workload.WebSearch(), 1e9)
	cl.FastForward(100000)
	m := cl.Measure(50000)
	if m.LLC.Accesses == 0 {
		t.Fatal("no LLC traffic")
	}
	if m.LLC.Hits == 0 {
		t.Fatal("LLC should capture some of the working set")
	}
	if m.DRAM.Reads+m.DRAM.Writes >= m.LLC.Accesses {
		t.Fatalf("DRAM traffic (%d) should be filtered below LLC traffic (%d)",
			m.DRAM.Reads+m.DRAM.Writes, m.LLC.Accesses)
	}
}

func TestUIPCRisesAsFrequencyDrops(t *testing.T) {
	// The paper's core mechanism, end to end through the real hierarchy.
	uipcAt := func(hz float64) float64 {
		cl := newTestCluster(t, workload.DataServing(), hz)
		cl.FastForward(100000)
		cl.Run(10000)
		return cl.Measure(40000).UIPC()
	}
	low := uipcAt(0.3e9)
	high := uipcAt(2e9)
	if low <= high {
		t.Fatalf("UIPC at 300MHz (%.3f) should exceed UIPC at 2GHz (%.3f)", low, high)
	}
}

func TestUIPSRisesWithFrequency(t *testing.T) {
	uipsAt := func(hz float64) float64 {
		cl := newTestCluster(t, workload.WebSearch(), hz)
		cl.FastForward(100000)
		cl.Run(10000)
		return cl.Measure(40000).UIPS()
	}
	if uipsAt(2e9) <= uipsAt(0.4e9) {
		t.Fatal("throughput must rise with frequency")
	}
}

func TestVMHighMemOutperformsLowMem(t *testing.T) {
	// Paper Sec. V-B1: "the UIPS of VMs high-mem is higher than VMs
	// low-mem".
	uips := func(p *workload.Profile) float64 {
		cl := newTestCluster(t, p, 1e9)
		cl.FastForward(100000)
		cl.Run(10000)
		return cl.Measure(40000).UIPS()
	}
	lo := uips(workload.VMLowMem())
	hi := uips(workload.VMHighMem())
	if hi <= lo {
		t.Fatalf("high-mem UIPS (%.3g) should exceed low-mem (%.3g)", hi, lo)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Measurement {
		cl := newTestCluster(t, workload.MediaStreaming(), 1e9)
		cl.FastForward(50000)
		return cl.Measure(20000)
	}
	a, b := run(), run()
	if a.Instructions != b.Instructions || a.UserInstructions != b.UserInstructions ||
		a.LLC != b.LLC || a.DRAM != b.DRAM {
		t.Fatal("cluster simulation is not deterministic")
	}
}

func TestSeedChangesResults(t *testing.T) {
	cfgA := DefaultConfig()
	cfgB := DefaultConfig()
	cfgB.Seed = 999
	a, err := NewCluster(cfgA, workload.WebSearch(), 1e9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewCluster(cfgB, workload.WebSearch(), 1e9)
	if err != nil {
		t.Fatal(err)
	}
	a.FastForward(50000)
	b.FastForward(50000)
	ma := a.Measure(20000)
	mb := b.Measure(20000)
	if ma.Instructions == mb.Instructions && ma.DRAM == mb.DRAM {
		t.Fatal("different seeds should perturb the simulation")
	}
}

func TestBandwidthAccounting(t *testing.T) {
	cl := newTestCluster(t, workload.MediaStreaming(), 1e9)
	cl.FastForward(100000)
	m := cl.Measure(50000)
	if m.ReadBandwidth() <= 0 {
		t.Fatal("streaming workload must consume read bandwidth")
	}
	dc := cl.cfg.DRAM
	if peak := (1e9 / dc.Timing.TCKNs) * 2 * 8 * float64(dc.Channels); m.ReadBandwidth() > peak {
		t.Fatalf("read bandwidth %.2f GB/s exceeds peak", m.ReadBandwidth()/1e9)
	}
	wantBW := float64(m.DRAM.BytesRead) / (m.DurationNs * 1e-9)
	if m.ReadBandwidth() != wantBW {
		t.Fatal("bandwidth accounting inconsistent")
	}
}

func TestWritebacksReachDRAM(t *testing.T) {
	cl := newTestCluster(t, workload.DataServing(), 1e9)
	cl.FastForward(400000)
	m := cl.Measure(100000)
	if m.DRAM.Writes == 0 {
		t.Fatal("store-heavy workload must eventually write back to DRAM")
	}
}

func TestCoresStayInLockstep(t *testing.T) {
	cl := newTestCluster(t, workload.WebSearch(), 1e9)
	cl.FastForward(20000)
	cl.Run(30000)
	var lo, hi int64 = 1 << 62, 0
	for _, c := range cl.cores {
		cy := c.Cycle()
		if cy < lo {
			lo = cy
		}
		if cy > hi {
			hi = cy
		}
	}
	// The min-clock scheduler keeps cores within one instruction's span of
	// each other relative to the 30k-cycle window.
	if hi-lo > 5000 {
		t.Fatalf("core clocks diverged: [%d, %d]", lo, hi)
	}
}

func TestMeasureWindowIsolation(t *testing.T) {
	// Back-to-back measurement windows count only their own events.
	cl := newTestCluster(t, workload.WebSearch(), 1e9)
	cl.FastForward(50000)
	m1 := cl.Measure(20000)
	m2 := cl.Measure(20000)
	if m2.Instructions > m1.Instructions*3 {
		t.Fatalf("window 2 (%d instrs) out of line with window 1 (%d)",
			m2.Instructions, m1.Instructions)
	}
	if m2.Cycles != 20000 {
		t.Fatal("window length wrong")
	}
}

func TestScaleOutAppsHaveLowUIPC(t *testing.T) {
	// Scale-out workloads commit well below machine width (the premise of
	// the scale-out processor literature the paper builds on).
	cl := newTestCluster(t, workload.DataServing(), 2e9)
	cl.FastForward(200000)
	cl.Run(10000)
	m := cl.Measure(50000)
	perCoreUIPC := m.UIPC() / 4
	if perCoreUIPC > 1.5 {
		t.Fatalf("data-serving per-core UIPC at 2GHz = %.3f, unrealistically high", perCoreUIPC)
	}
	if perCoreUIPC < 0.05 {
		t.Fatalf("data-serving per-core UIPC at 2GHz = %.3f, unrealistically low", perCoreUIPC)
	}
}

func BenchmarkClusterRun(b *testing.B) {
	cl, err := NewCluster(DefaultConfig(), workload.WebSearch(), 1e9)
	if err != nil {
		b.Fatal(err)
	}
	cl.FastForward(50000)
	b.ResetTimer()
	cl.Run(int64(b.N))
}

func BenchmarkClusterFastForward(b *testing.B) {
	cl, err := NewCluster(DefaultConfig(), workload.WebSearch(), 1e9)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	cl.FastForward(uint64(b.N))
}

// TestAccessPathAllocs is the optimization contract for the memory access
// kernel: once the cluster is warm, a demand read, an L1 writeback, and
// the DRAM fill path behind them perform zero heap allocations per
// access. This is the path every simulated L1 miss takes, so an
// allocation here multiplies across the billions of events of a sweep.
func TestAccessPathAllocs(t *testing.T) {
	cl := newTestCluster(t, workload.WebSearch(), 2e9)
	cl.FastForward(100_000)
	var addr uint64 = 0x5eed
	nowNs := 1.0
	i := 0
	allocs := testing.AllocsPerRun(20_000, func() {
		addr = addr*2862933555777941757 + 3037000493
		nowNs += 2.0
		cl.Access(0, addr&((1<<30)-1), i&7 == 0, nowNs)
		i++
	})
	if allocs != 0 {
		t.Fatalf("Cluster.Access allocates %.4f allocs/op, want 0", allocs)
	}
}

// TestFastForwardSteadyStateAllocs gates the functional-warming kernel:
// after the first call has sized the interleave scratch, further
// fast-forward windows allocate nothing.
func TestFastForwardSteadyStateAllocs(t *testing.T) {
	cl := newTestCluster(t, workload.WebSearch(), 2e9)
	cl.FastForward(10_000) // first call sizes the scratch
	allocs := testing.AllocsPerRun(20, func() {
		cl.FastForward(2_000)
	})
	if allocs != 0 {
		t.Fatalf("Cluster.FastForward allocates %.4f allocs/window, want 0", allocs)
	}
}

// TestRunSteadyStateAllocs gates the detailed-simulation driver the same
// way: repeated measurement windows reuse the per-core target scratch.
func TestRunSteadyStateAllocs(t *testing.T) {
	cl := newTestCluster(t, workload.WebSearch(), 2e9)
	cl.FastForward(50_000)
	cl.Run(1_000) // first call sizes the scratch
	allocs := testing.AllocsPerRun(10, func() {
		cl.Run(500)
	})
	if allocs != 0 {
		t.Fatalf("Cluster.Run allocates %.4f allocs/window, want 0", allocs)
	}
}

// TestBankSelectionMaskEquivalence pins the mask/shift bank selection
// against the modulo/divide arithmetic it replaced, across bank counts
// and a dense address sample, including round-tripping through unbank.
func TestBankSelectionMaskEquivalence(t *testing.T) {
	for _, banks := range []int{1, 2, 4, 8} {
		cfg := DefaultConfig()
		cfg.LLC.Banks = banks
		cfg.LLC.CapacityBytes = 4 << 20
		cl, err := NewCluster(cfg, workload.WebSearch(), 1e9)
		if err != nil {
			t.Fatal(err)
		}
		var addr uint64 = 1
		for i := 0; i < 50_000; i++ {
			addr = addr*2862933555777941757 + 3037000493
			a := addr & ((1 << 40) - 1)
			gotBank, gotLocal := cl.bankOf(a)
			line := a >> cache.LineBits
			n := uint64(banks)
			wantBank, wantLocal := int(line%n), (line/n)<<cache.LineBits
			if gotBank != wantBank || gotLocal != wantLocal {
				t.Fatalf("banks=%d addr=%#x: bankOf = (%d, %#x), want (%d, %#x)",
					banks, a, gotBank, gotLocal, wantBank, wantLocal)
			}
			lineAddr := (a >> cache.LineBits) << cache.LineBits
			if rt := cl.unbank(gotBank, gotLocal); rt != lineAddr {
				t.Fatalf("banks=%d addr=%#x: unbank round-trip = %#x, want %#x", banks, a, rt, lineAddr)
			}
		}
	}
}
