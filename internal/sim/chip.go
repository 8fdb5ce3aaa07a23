package sim

import (
	"context"
	"fmt"
	"math"

	"ntcsim/internal/dram"
	"ntcsim/internal/parallel"
	"ntcsim/internal/workload"
)

// sharedMemory wraps one DRAM system behind a monotone clock so that
// multiple clusters (whose core clocks drift independently) can share it.
type sharedMemory struct {
	sys     *dram.System
	clampNs float64
}

// newSharedMemory builds the shared memory system.
func newSharedMemory(cfg dram.Config) (*sharedMemory, error) {
	sys, err := dram.New(cfg)
	if err != nil {
		return nil, err
	}
	return &sharedMemory{sys: sys}, nil
}

// cloneInto makes dst an independent copy of the memory system and its
// clock, reusing dst's storage, and returns it; a nil dst is allocated.
func (m *sharedMemory) cloneInto(dst *sharedMemory) *sharedMemory {
	if dst == nil {
		dst = new(sharedMemory)
	}
	sys := dst.sys
	*dst = *m
	dst.sys = m.sys.CloneInto(sys)
	return dst
}

// Submit forwards to the DRAM simulator with time clamped forward.
func (m *sharedMemory) Submit(addr uint64, write bool, nowNs float64) float64 {
	if nowNs > m.clampNs {
		m.clampNs = nowNs
	}
	return m.sys.Submit(addr, write, m.clampNs)
}

// Stats exposes the underlying statistics.
func (m *sharedMemory) Stats() dram.Stats { return m.sys.Stats() }

// ResetStats clears statistics, preserving bank state.
func (m *sharedMemory) ResetStats() { m.sys.ResetStats() }

// Chip simulates several clusters sharing one memory system — the
// configuration the single-cluster methodology approximates by scaling.
// It exists to validate that approximation (DESIGN.md simplification #2):
// per-cluster throughput with 1, 2, 3... clusters actively sharing the
// DRAM channels quantifies the contention the scaling ignores.
type Chip struct {
	clusters []*Cluster
	mem      *sharedMemory
	jobs     int
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
// All clusters share one DRAM system; cores receive globally unique IDs so
// their address spaces stay disjoint.
func NewHeteroChip(cfg Config, clusters []ClusterSpec) (*Chip, error) {
	if len(clusters) == 0 {
		return nil, fmt.Errorf("sim: chip needs at least one cluster")
	}
	mem, err := newSharedMemory(cfg.DRAM)
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

// Run advances every core on the chip by the given wall-clock duration
// (expressed as cycles of the FASTEST cluster's clock), always stepping the
// core with the smallest local time so shared-memory contention is honored
// across clusters with different frequencies.
func (c *Chip) Run(cycles int64) {
	durNs := c.windowNs(cycles)
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

// windowNs returns the wall-clock length of a window of the given cycles
// of the fastest cluster's clock (Run's contract).
func (c *Chip) windowNs(cycles int64) float64 {
	fastest := 0.0
	for _, cl := range c.clusters {
		if cl.freqHz > fastest {
			fastest = cl.freqHz
		}
	}
	return float64(cycles) * 1e9 / fastest
}

// Measure runs one detailed window and returns per-cluster measurements
// plus the shared DRAM statistics for the window.
func (c *Chip) Measure(cycles int64) ([]Measurement, dram.Stats) {
	for _, cl := range c.clusters {
		cl.ResetStats()
	}
	c.mem.ResetStats()
	c.Run(cycles)
	durNs := c.windowNs(cycles)
	out := make([]Measurement, 0, len(c.clusters))
	for _, cl := range c.clusters {
		out = append(out, cl.collect(int64(durNs*cl.freqHz/1e9), durNs))
	}
	return out, c.mem.Stats()
}
