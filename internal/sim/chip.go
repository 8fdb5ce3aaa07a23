package sim

import (
	"context"
	"fmt"
	"math"

	"ntcsim/internal/dram"
	"ntcsim/internal/parallel"
	"ntcsim/internal/workload"
)

// SharedMemory wraps one DRAM system behind a monotone clock so that
// multiple clusters (whose core clocks drift independently) can share it.
type SharedMemory struct {
	sys     *dram.System
	clampNs float64
}

// NewSharedMemory builds the shared memory system.
func NewSharedMemory(cfg dram.Config) (*SharedMemory, error) {
	sys, err := dram.New(cfg)
	if err != nil {
		return nil, err
	}
	return &SharedMemory{sys: sys}, nil
}

// Submit forwards to the DRAM simulator with time clamped forward.
func (m *SharedMemory) Submit(addr uint64, write bool, nowNs float64) float64 {
	if nowNs > m.clampNs {
		m.clampNs = nowNs
	}
	return m.sys.Submit(addr, write, m.clampNs)
}

// Stats exposes the underlying statistics.
func (m *SharedMemory) Stats() dram.Stats { return m.sys.Stats() }

// ResetStats clears statistics, preserving bank state.
func (m *SharedMemory) ResetStats() { m.sys.ResetStats() }

// Config returns the memory configuration.
func (m *SharedMemory) Config() dram.Config { return m.sys.Config() }

// Chip simulates several clusters sharing one memory system — the
// configuration the single-cluster methodology approximates by scaling.
// It exists to validate that approximation (DESIGN.md simplification #2):
// per-cluster throughput with 1, 2, 3... clusters actively sharing the
// DRAM channels quantifies the contention the scaling ignores.
type Chip struct {
	clusters []*Cluster
	mem      *SharedMemory
	jobs     int
}

// NewChip builds n identical clusters running profile, all sharing one
// DRAM system. Cores receive globally unique IDs so their address spaces
// stay disjoint.
func NewChip(cfg Config, profile *workload.Profile, n int, freqHz float64) (*Chip, error) {
	assign := make([]ClusterSpec, n)
	for i := range assign {
		assign[i] = ClusterSpec{Profile: profile, FreqHz: freqHz}
	}
	return NewHeteroChip(cfg, assign)
}

// ClusterSpec assigns one cluster its workload and core frequency.
type ClusterSpec struct {
	Profile *workload.Profile
	FreqHz  float64
}

// NewHeteroChip builds a chip whose clusters run different workloads at
// different frequencies — per-cluster DVFS is exactly what the paper's
// cluster organization (one V/f and OS image per cluster) permits, and the
// substrate for the consolidation direction of Sec. V-C: latency-critical
// clusters at their QoS point next to batch clusters at the NT optimum.
func NewHeteroChip(cfg Config, clusters []ClusterSpec) (*Chip, error) {
	if len(clusters) == 0 {
		return nil, fmt.Errorf("sim: chip needs at least one cluster")
	}
	mem, err := NewSharedMemory(cfg.DRAM)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	ch := &Chip{mem: mem}
	for i, spec := range clusters {
		if spec.Profile == nil || spec.FreqHz <= 0 {
			return nil, fmt.Errorf("sim: cluster %d has no workload or frequency", i)
		}
		clusterCfg := cfg
		clusterCfg.Seed = cfg.Seed + uint64(i)*0x9e37
		profiles := make([]*workload.Profile, cfg.CoresPerCluster)
		for j := range profiles {
			profiles[j] = spec.Profile
		}
		plans, err := newPlans(clusterCfg, profiles, i*cfg.CoresPerCluster)
		if err != nil {
			return nil, err
		}
		cl, err := newCluster(clusterCfg, plans, spec.FreqHz, mem)
		if err != nil {
			return nil, err
		}
		ch.clusters = append(ch.clusters, cl)
	}
	return ch, nil
}

// Cluster returns the i-th cluster (for per-cluster DVFS or inspection).
func (c *Chip) Cluster(i int) *Cluster { return c.clusters[i] }

// Clusters returns the cluster count.
func (c *Chip) Clusters() int { return len(c.clusters) }

// SetJobs bounds the worker count for the chip's parallel phases
// (currently functional warmup). n <= 0 selects GOMAXPROCS. The result of
// every phase is bit-identical for any setting; jobs only bounds
// concurrency.
func (c *Chip) SetJobs(n int) { c.jobs = n }

// FastForward functionally warms every cluster. During functional warming
// a cluster touches only its own cores, generators and LLC banks — never
// the shared DRAM system — so clusters warm concurrently (bounded by
// SetJobs) with results identical to the serial loop.
func (c *Chip) FastForward(nPerCore uint64) {
	_ = parallel.ForEach(context.Background(), len(c.clusters), c.jobs,
		func(_ context.Context, i int) error {
			c.clusters[i].FastForward(nPerCore)
			return nil
		})
}

// SetFrequency retargets every core on the chip.
func (c *Chip) SetFrequency(hz float64) {
	for _, cl := range c.clusters {
		cl.SetFrequency(hz)
	}
}

// Run advances every core on the chip by the given wall-clock duration
// (expressed as cycles of the FASTEST cluster's clock), always stepping the
// core with the smallest local time so shared-memory contention is honored
// across clusters with different frequencies.
func (c *Chip) Run(cycles int64) {
	fastest := 0.0
	for _, cl := range c.clusters {
		if cl.freqHz > fastest {
			fastest = cl.freqHz
		}
	}
	durNs := float64(cycles) * 1e9 / fastest
	type target struct {
		cl      *Cluster
		idx     int
		limitNs float64
	}
	var ts []target
	for _, cl := range c.clusters {
		for i, core := range cl.cores {
			ts = append(ts, target{cl, i, core.NowNs() + durNs})
		}
	}
	for {
		best := -1
		bestNs := math.Inf(1)
		for i, t := range ts {
			if now := t.cl.cores[t.idx].NowNs(); now < t.limitNs && now < bestNs {
				best, bestNs = i, now
			}
		}
		if best < 0 {
			return
		}
		t := ts[best]
		t.cl.cores[t.idx].Step()
	}
}

// Measure runs one detailed window and returns per-cluster measurements
// plus the shared DRAM statistics for the window.
func (c *Chip) Measure(cycles int64) ([]Measurement, dram.Stats) {
	for _, cl := range c.clusters {
		cl.ResetStats()
	}
	c.mem.ResetStats()
	c.Run(cycles)
	// The window length in wall-clock terms (Run's contract: `cycles` of
	// the fastest cluster's clock).
	fastest := 0.0
	for _, cl := range c.clusters {
		if cl.freqHz > fastest {
			fastest = cl.freqHz
		}
	}
	durNs := float64(cycles) * 1e9 / fastest
	out := make([]Measurement, 0, len(c.clusters))
	for _, cl := range c.clusters {
		m := Measurement{
			Cycles:     int64(durNs * cl.freqHz / 1e9),
			FreqHz:     cl.freqHz,
			DurationNs: durNs,
		}
		for _, core := range cl.cores {
			s := core.Stats()
			m.PerCore = append(m.PerCore, s)
			m.Instructions += s.Instructions
			m.UserInstructions += s.UserInstructions
		}
		for _, b := range cl.banks {
			s := b.Stats()
			m.LLC.Accesses += s.Accesses
			m.LLC.Hits += s.Hits
			m.LLC.Misses += s.Misses
			m.LLC.Writebacks += s.Writebacks
		}
		m.XbarTransfers = cl.xbar.Transfers()
		m.LLCReads = cl.llcReads
		m.LLCWrites = cl.llcWrites
		out = append(out, m)
	}
	return out, c.mem.Stats()
}
