// Package sim stands at the cluster simulator's import path, which the
// snapshotcheck analyzer audits by default.
package sim

// Cluster's clone copies its fields one by one and forgets its DRAM read
// count.
type Cluster struct {
	freqHz    float64
	dramReads uint64 // want `field Cluster.dramReads is not copied by clone`
}

func (cl *Cluster) clone() *Cluster { return &Cluster{freqHz: cl.freqHz} }
