package sim

// Checkpoint is a warmed cluster, frozen — the paper's methodology
// launches measurements "from checkpoints with warmed caches and branch
// predictors" (Sec. IV), and warming dominates simulation cost, so one
// checkpoint amortizes it across every point of a sweep.
//
// A checkpoint holds a deep copy of the cluster that is never run: only
// RestoreCluster reads it, so one checkpoint may be restored from many
// goroutines at once.
type Checkpoint struct{ cl *Cluster }

// Checkpoint captures the cluster's full state.
func (cl *Cluster) Checkpoint() *Checkpoint { return &Checkpoint{cl: cl.clone()} }

// RestoreCluster returns a new cluster in the checkpoint's state, running
// the plans the checkpoint was taken with.
func RestoreCluster(ck *Checkpoint) *Cluster { return ck.cl.clone() }
