package sim

import (
	"fmt"
	"slices"

	"ntcsim/internal/cache"
	"ntcsim/internal/cpu"
	"ntcsim/internal/dram"
	"ntcsim/internal/uncore"
	"ntcsim/internal/workload"
)

// Checkpoint is the complete state of a warmed cluster — the paper's
// methodology launches measurements "from checkpoints with warmed caches
// and branch predictors" (Sec. IV), and warming dominates simulation
// cost, so one checkpoint amortizes it across every point of a sweep.
//
// A checkpoint records the construction parameters (configuration, workload
// names, frequency) plus every component's dynamic state; RestoreCluster
// rebuilds the cluster deterministically and loads the state.
type Checkpoint struct {
	Config   Config
	Profiles []string // workload names, one per core
	FreqHz   float64

	Cores   []cpu.CoreState
	Banks   [][][]cache.LineState
	BankSts []cache.Stats
	Xbar    uncore.CrossbarState
	Memory  dram.SystemState
	ClampNs float64

	LLCReads  uint64
	LLCWrites uint64

	// plans holds each core's workload-generator plan, so RestoreCluster
	// runs the very profiles the checkpoint was taken with and reuses
	// their bias tables instead of drawing them again at every sweep
	// point.
	plans []workload.Plan
}

// Checkpoint captures the cluster's full state.
func (cl *Cluster) Checkpoint() *Checkpoint {
	ck := &Checkpoint{
		Config:    cl.cfg,
		FreqHz:    cl.freqHz,
		Xbar:      cl.xbar.State(),
		Memory:    cl.mem.sys.State(),
		ClampNs:   cl.mem.clampNs,
		LLCReads:  cl.llcReads,
		LLCWrites: cl.llcWrites,
	}
	for i := range cl.plans {
		ck.Profiles = append(ck.Profiles, cl.plans[i].Profile().Name)
	}
	ck.plans = cl.plans
	for _, c := range cl.cores {
		ck.Cores = append(ck.Cores, c.State())
	}
	for _, b := range cl.banks {
		ck.Banks = append(ck.Banks, b.Snapshot())
		ck.BankSts = append(ck.BankSts, b.Stats())
	}
	return ck
}

// RestoreCluster rebuilds a cluster from a checkpoint, onto the plans it
// carries.
func RestoreCluster(ck *Checkpoint) (*Cluster, error) {
	sameName := func(pl workload.Plan, name string) bool { return pl.Profile().Name == name }
	if !slices.EqualFunc(ck.plans, ck.Profiles, sameName) {
		return nil, fmt.Errorf("sim: checkpoint workload names do not match its plans")
	}
	mem, err := NewSharedMemory(ck.Config.DRAM)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	cl, err := newCluster(ck.Config, ck.plans, ck.FreqHz, mem)
	if err != nil {
		return nil, err
	}
	if len(ck.Cores) != len(cl.cores) || len(ck.Banks) != len(cl.banks) {
		return nil, fmt.Errorf("sim: checkpoint shape mismatch")
	}
	for i, st := range ck.Cores {
		if err := cl.cores[i].Restore(st); err != nil {
			return nil, fmt.Errorf("sim: core %d: %w", i, err)
		}
	}
	for i, snap := range ck.Banks {
		if err := cl.banks[i].RestoreSnapshot(snap); err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		cl.banks[i].SetStats(ck.BankSts[i])
	}
	if err := cl.xbar.Restore(ck.Xbar); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	if err := cl.mem.sys.Restore(ck.Memory); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	cl.mem.clampNs = ck.ClampNs
	cl.llcReads = ck.LLCReads
	cl.llcWrites = ck.LLCWrites
	return cl, nil
}
