// Package sim stands at the cluster simulator's import path, which the
// snapshotcheck analyzer audits by default with the
// Checkpoint:RestoreCluster pair.
package sim

// Cluster checkpoints its frequency but not its DRAM read count.
type Cluster struct {
	freqHz    float64
	dramReads uint64 // want `field Cluster.dramReads is not captured by Checkpoint`
}

// Checkpoint is the cluster's checkpoint image.
type Checkpoint struct {
	FreqHz float64
}

func (cl *Cluster) Checkpoint() *Checkpoint { return &Checkpoint{FreqHz: cl.freqHz} }

func RestoreCluster(ck *Checkpoint) (*Cluster, error) { return &Cluster{freqHz: ck.FreqHz}, nil }
