// Package sim is the full-system cluster simulator — the stand-in for the
// paper's Flexus infrastructure (Sec. IV). It assembles one scale-out
// cluster exactly as the paper configures it: 4 Cortex-A57-class OoO cores
// with private 32KB 2-way L1s, a shared 4MB 16-way LLC split into 4 banks,
// a cache-coherent crossbar between cores and banks, and the DDR4 memory
// system, all on a unified nanosecond timeline.
//
// The cores run on the scaled core clock; the LLC, crossbar and DRAM run
// on fixed uncore clocks, so their latencies are constant in nanoseconds —
// the property that makes user-IPC rise as the core frequency drops.
//
// The chip hosts 9 such clusters (Sec. IV); chip-level figures are obtained
// by scaling a single simulated cluster, mirroring the paper's own
// methodology of simulating 4-core clusters and verifying that cluster
// count does not change the trends.
package sim

import (
	"fmt"
	"math"
	"time"

	"ntcsim/internal/cache"
	"ntcsim/internal/cpu"
	"ntcsim/internal/dram"
	"ntcsim/internal/rng"
	"ntcsim/internal/sram"
	"ntcsim/internal/uncore"
	"ntcsim/internal/workload"
)

// Config assembles a cluster.
type Config struct {
	CoresPerCluster int
	Core            cpu.Config
	LLC             sram.Config // LLC.Banks is also the crossbar's port count
	DRAM            dram.Config
	Seed            uint64
}

// DefaultConfig returns the paper's cluster configuration.
func DefaultConfig() Config {
	return Config{
		CoresPerCluster: 4,
		Core:            cpu.DefaultConfig(),
		LLC:             sram.DefaultLLCConfig(),
		DRAM:            dram.DefaultConfig(),
		Seed:            0x5eed,
	}
}

// Cluster is one simulated cluster plus the memory system. Not safe for
// concurrent use.
type Cluster struct {
	cfg    Config
	plans  []workload.Plan // per core, shared read-only with checkpoints
	freqHz float64
	cores  []*cpu.Core
	banks  []*cache.Cache
	xbar   *uncore.Crossbar
	mem    *sharedMemory

	// Derived access-path constants, set by newCluster.
	llcLatNs float64
	// Bank selection as mask/shift (LLC.Banks is a validated power of
	// two), so the per-access bankOf/unbank path has no integer divides.
	bankMask  uint64
	bankShift uint

	// Reusable scratch for Run/FastForward so repeated measurement and
	// warming windows allocate nothing after the first call.
	runTargets  []int64
	ffRemaining []uint64

	llcReads  uint64 // demand reads received by the LLC
	llcWrites uint64 // L1 writebacks received by the LLC
}

// NewCluster builds a cluster running profile on every core at the given
// core frequency.
func NewCluster(cfg Config, profile *workload.Profile, freqHz float64) (*Cluster, error) {
	profiles := make([]*workload.Profile, cfg.CoresPerCluster)
	for i := range profiles {
		profiles[i] = profile
	}
	return NewMixedCluster(cfg, profiles, freqHz)
}

// NewMixedCluster builds a cluster with one workload per core — the
// co-scheduling configuration the paper's private-cloud discussion rules
// out because of interference (Sec. III-B1); the interference analysis in
// internal/core quantifies exactly that effect.
func NewMixedCluster(cfg Config, profiles []*workload.Profile, freqHz float64) (*Cluster, error) {
	plans, err := newPlans(cfg, profiles, 0)
	if err != nil {
		return nil, err
	}
	mem, err := newSharedMemory(cfg.DRAM)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	return newCluster(cfg, plans, freqHz, mem)
}

// newPlans builds the generator plan of each core running profiles, with
// globally unique core IDs starting at coreIDBase (used by Chip).
func newPlans(cfg Config, profiles []*workload.Profile, coreIDBase int) ([]workload.Plan, error) {
	seed := rng.New(cfg.Seed)
	plans := make([]workload.Plan, len(profiles))
	for i, p := range profiles {
		if p == nil {
			return nil, fmt.Errorf("sim: nil profile for core %d", i)
		}
		plans[i] = workload.NewPlan(p, coreIDBase+i, seed)
	}
	return plans, nil
}

// newCluster builds a cluster whose core i runs plans[i] against an
// externally owned memory system.
func newCluster(cfg Config, plans []workload.Plan, freqHz float64, mem *sharedMemory) (*Cluster, error) {
	if cfg.CoresPerCluster <= 0 {
		return nil, fmt.Errorf("sim: cores per cluster must be positive")
	}
	if len(plans) != cfg.CoresPerCluster {
		return nil, fmt.Errorf("sim: %d profiles for %d cores", len(plans), cfg.CoresPerCluster)
	}
	if err := cfg.LLC.Validate(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	banks := cfg.LLC.Banks
	if banks&(banks-1) != 0 {
		return nil, fmt.Errorf("sim: LLC banks must be a positive power of two, got %d", banks)
	}
	xbar, err := uncore.NewCrossbar(banks)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	cl := &Cluster{
		cfg:      cfg,
		plans:    plans,
		freqHz:   freqHz,
		xbar:     xbar,
		mem:      mem,
		llcLatNs: float64(cfg.LLC.AccessLatency()) / float64(time.Nanosecond),
	}
	cl.bankMask = uint64(banks - 1)
	for n := banks; n > 1; n >>= 1 {
		cl.bankShift++
	}
	// The cluster LLC is split into banks; each bank holds an equal share.
	bankCfg := cache.Config{
		SizeBytes: cfg.LLC.CapacityBytes / banks,
		Assoc:     cfg.LLC.Associativity,
	}
	for i := 0; i < banks; i++ {
		bankCfg.Name = fmt.Sprintf("llc-bank%d", i)
		b, err := cache.New(bankCfg)
		if err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		cl.banks = append(cl.banks, b)
	}
	for i := range plans {
		core, err := cpu.New(cfg.Core, plans[i].Core(), workload.NewGenerator(plans[i]), cl, freqHz)
		if err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		cl.cores = append(cl.cores, core)
	}
	return cl, nil
}

// Clone returns an independent deep copy of the cluster and its memory
// system: a copy runs exactly as the original would from here. It shares
// the read-only plans and starts with empty Run/FastForward scratch and
// observability off (instrumentation is not simulator state).
//
// Clone only reads cl, so many goroutines may clone one cluster at once
// while nothing runs it. That is how a sweep launches every measurement
// from a warmed live point (the paper launches "from checkpoints with
// warmed caches and branch predictors", Sec. IV).
func (cl *Cluster) Clone() *Cluster {
	n := *cl
	n.plans = cl.plans // shared: a plan is never written after NewPlan
	n.mem = cl.mem.clone()
	n.xbar = cl.xbar.Clone()
	n.banks = make([]*cache.Cache, len(cl.banks))
	for i, b := range cl.banks {
		n.banks[i] = b.Clone()
	}
	n.cores = make([]*cpu.Core, len(cl.cores))
	for i, c := range cl.cores {
		n.cores[i] = c.Clone(&n)
	}
	n.runTargets, n.ffRemaining = nil, nil
	return &n
}

// SetFrequency applies a DVFS transition to all cores. Caches, predictors
// and DRAM state survive, so one warmed cluster can be swept across the
// whole frequency range (the uncore runs on its own clock and is
// unaffected, matching the paper's platform). Run a settle window before
// the next measurement.
func (cl *Cluster) SetFrequency(hz float64) {
	cl.freqHz = hz
	for _, c := range cl.cores {
		c.SetFrequency(hz)
	}
}

// Cores returns the core count.
func (cl *Cluster) Cores() int { return len(cl.cores) }

// bankOf selects the LLC bank for a line address and returns the
// bank-local address (bank-selection bits stripped, so the bank's full set
// index space is used). Bank count is a power of two, so selection is a
// mask and the divide a shift — exact integer equivalents.
func (cl *Cluster) bankOf(addr uint64) (bank int, bankAddr uint64) {
	line := addr >> cache.LineBits
	return int(line & cl.bankMask), (line >> cl.bankShift) << cache.LineBits
}

// unbank reconstructs the original address from a bank-local one (used for
// LLC victim writebacks).
func (cl *Cluster) unbank(bank int, bankAddr uint64) uint64 {
	line := bankAddr >> cache.LineBits
	return (line<<cl.bankShift | uint64(bank)) << cache.LineBits
}

// Access implements cpu.MemSystem: a demand request (write=false) or a
// posted L1 writeback (write=true) below the L1s.
func (cl *Cluster) Access(coreID int, addr uint64, write bool, nowNs float64) float64 {
	if write {
		cl.llcWrites++
	} else {
		cl.llcReads++
	}
	bank, bankAddr := cl.bankOf(addr)
	// Inline clamp instead of math.Max: identical for every input the
	// cores produce (non-negative or NaN-free timestamps), and the call
	// disappears from the per-miss path.
	t := nowNs
	if t < 0 {
		t = 0
	}
	arrive := cl.xbar.Request(bank, t)
	ready := arrive + cl.llcLatNs

	res := cl.banks[bank].Access(bankAddr, write)
	if res.Hit {
		// Served by the LLC; one crossbar traversal back to the core.
		return ready + uncore.CrossbarTraversalNs
	}
	if res.Victim.Dirty {
		// LLC dirty victim is written back to DRAM (posted).
		cl.mem.Submit(cl.unbank(bank, res.Victim.Addr), true, ready)
	}
	if write {
		// L1 writeback that missed the LLC: allocate the full line in
		// place (the data comes from the core), no DRAM fetch needed.
		return ready + uncore.CrossbarTraversalNs
	}
	// Demand fill from DRAM.
	done := cl.mem.Submit(addr, false, ready)
	return done + cl.llcLatNs + uncore.CrossbarTraversalNs
}

// Warm implements cpu.MemSystem for functional warming, which keeps the
// detailed cache rules without timing: an L1 miss (write=false) touches
// the LLC tags and a dirty L1 victim (write=true) is written into them.
// Nothing else moves. The crossbar and DRAM see no request, so a dirty
// LLC victim is dropped by design: warming trains no DRAM state. The
// core's stream prefetcher and MSHRs are detailed-only.
func (cl *Cluster) Warm(coreID int, addr uint64, write bool) {
	bank, bankAddr := cl.bankOf(addr)
	cl.banks[bank].Access(bankAddr, write)
}

// FastForward functionally warms the whole cluster by n instructions per
// core (caches and branch predictors train; no timing).
func (cl *Cluster) FastForward(nPerCore uint64) {
	// Interleave in chunks so the shared LLC sees a realistic mix.
	const chunk = 8192
	if cl.ffRemaining == nil {
		cl.ffRemaining = make([]uint64, len(cl.cores))
	}
	remaining := cl.ffRemaining
	for i := range remaining {
		remaining[i] = nPerCore
	}
	for {
		active := false
		for i, c := range cl.cores {
			if remaining[i] == 0 {
				continue
			}
			n := uint64(chunk)
			if n > remaining[i] {
				n = remaining[i]
			}
			c.FastForward(n)
			remaining[i] -= n
			active = true
		}
		if !active {
			return
		}
	}
}

// Run advances every core by the given number of core cycles, interleaving
// instruction-by-instruction so shared-resource contention is honored: the
// core with the smallest (local clock, index) always steps next. Stepping
// a core moves only its own clock, so once the next core is chosen it
// stays the choice until it reaches its target or passes the runner-up;
// it steps in one batch up to that point, without rescanning the others.
func (cl *Cluster) Run(cycles int64) {
	if cl.runTargets == nil {
		cl.runTargets = make([]int64, len(cl.cores))
	}
	targets := cl.runTargets
	for i, c := range cl.cores {
		targets[i] = c.Cycle() + cycles
	}
	for {
		best, next := -1, -1
		var bestCycle, nextCycle int64 = math.MaxInt64, math.MaxInt64
		for i, c := range cl.cores {
			cy := c.Cycle()
			switch {
			case cy >= targets[i]:
			case cy < bestCycle:
				next, nextCycle = best, bestCycle
				best, bestCycle = i, cy
			case cy < nextCycle:
				next, nextCycle = i, cy
			}
		}
		if best < 0 {
			return
		}
		// best keeps the smallest (cycle, index) while its clock stays
		// below the runner-up's, or equal to it when best has the lower
		// index.
		stop := targets[best]
		if next >= 0 {
			limit := nextCycle
			if best < next {
				limit++
			}
			stop = min(stop, limit)
		}
		c := cl.cores[best]
		c.Step()
		for c.Cycle() < stop {
			c.Step()
		}
	}
}

// ResetStats clears all measurement counters (cores, LLC, crossbar, DRAM)
// while preserving microarchitectural state.
func (cl *Cluster) ResetStats() {
	for _, c := range cl.cores {
		c.ResetStats()
	}
	for _, b := range cl.banks {
		b.ResetStats()
	}
	cl.xbar.ResetStats()
	cl.mem.ResetStats()
	cl.llcReads = 0
	cl.llcWrites = 0
}

// Measurement is the outcome of one detailed measurement window, or the
// sum of several (see Add).
type Measurement struct {
	Cycles     int64   // core cycles in the window
	FreqHz     float64 // core clock
	DurationNs float64 // wall-clock duration of the window

	Instructions     uint64 // committed, all cores
	UserInstructions uint64

	PerCore []cpu.Stats
	LLC     cache.Stats
	DRAM    dram.Stats

	XbarTransfers uint64
	// LLCReads / LLCWrites split the LLC traffic by direction (demand
	// reads vs L1 writebacks), for the uncore energy model.
	LLCReads  uint64
	LLCWrites uint64
}

// Add sums window o into m, core by core. m keeps the FreqHz of the
// first window added: the windows of one sum share a core clock.
func (m *Measurement) Add(o Measurement) {
	if m.FreqHz == 0 {
		m.FreqHz = o.FreqHz
	}
	m.Cycles += o.Cycles
	m.DurationNs += o.DurationNs
	m.Instructions += o.Instructions
	m.UserInstructions += o.UserInstructions
	for i, s := range o.PerCore {
		if i == len(m.PerCore) {
			m.PerCore = append(m.PerCore, cpu.Stats{})
		}
		m.PerCore[i].Add(s)
	}
	m.LLC.Add(o.LLC)
	m.DRAM.Add(o.DRAM)
	m.XbarTransfers += o.XbarTransfers
	m.LLCReads += o.LLCReads
	m.LLCWrites += o.LLCWrites
}

// UIPC returns the cluster's aggregate user instructions per core-cycle —
// the paper's performance metric (Sec. IV).
func (m Measurement) UIPC() float64 {
	if m.Cycles == 0 {
		return 0
	}
	return float64(m.UserInstructions) / float64(m.Cycles)
}

// UIPS returns aggregate user instructions per second.
func (m Measurement) UIPS() float64 { return m.UIPC() * m.FreqHz }

// ReadBandwidth returns DRAM read bandwidth in bytes/s over the window.
func (m Measurement) ReadBandwidth() float64 {
	if m.DurationNs <= 0 {
		return 0
	}
	return float64(m.DRAM.BytesRead) / (m.DurationNs * 1e-9)
}

// WriteBandwidth returns DRAM write bandwidth in bytes/s over the window.
func (m Measurement) WriteBandwidth() float64 {
	if m.DurationNs <= 0 {
		return 0
	}
	return float64(m.DRAM.BytesWritten) / (m.DurationNs * 1e-9)
}

// LLCAccessRate returns LLC accesses per second over the window.
func (m Measurement) LLCAccessRate() float64 {
	if m.DurationNs <= 0 {
		return 0
	}
	return float64(m.LLC.Accesses) / (m.DurationNs * 1e-9)
}

// LLCReadRate returns LLC demand reads per second over the window.
func (m Measurement) LLCReadRate() float64 {
	if m.DurationNs <= 0 {
		return 0
	}
	return float64(m.LLCReads) / (m.DurationNs * 1e-9)
}

// LLCWriteRate returns LLC writeback receipts per second over the window.
func (m Measurement) LLCWriteRate() float64 {
	if m.DurationNs <= 0 {
		return 0
	}
	return float64(m.LLCWrites) / (m.DurationNs * 1e-9)
}

// Measure runs one detailed window of the given length in core cycles and
// returns its measurement (counters are reset at the start of the window).
func (cl *Cluster) Measure(cycles int64) Measurement {
	cl.ResetStats()
	cl.Run(cycles)
	return cl.measurement(cycles)
}

// measurement collects the counters of a window of the given length that
// has just run.
func (cl *Cluster) measurement(cycles int64) Measurement {
	m := cl.collect(cycles, float64(cycles)*1e9/cl.freqHz)
	m.DRAM = cl.mem.Stats()
	return m
}

// collect gathers the cluster's own counters for a window of cycles core
// cycles lasting durNs that has just run. DRAM is left to the caller: a
// chip's clusters share one memory system.
func (cl *Cluster) collect(cycles int64, durNs float64) Measurement {
	m := Measurement{
		Cycles:        cycles,
		FreqHz:        cl.freqHz,
		DurationNs:    durNs,
		XbarTransfers: cl.xbar.Transfers(),
		LLCReads:      cl.llcReads,
		LLCWrites:     cl.llcWrites,
	}
	for _, c := range cl.cores {
		s := c.Stats()
		m.PerCore = append(m.PerCore, s)
		m.Instructions += s.Instructions
		m.UserInstructions += s.UserInstructions
	}
	for _, b := range cl.banks {
		m.LLC.Add(b.Stats())
	}
	return m
}
