package workload

// Extended workload clones beyond the paper's evaluation set. CloudSuite
// (which the paper draws its scale-out applications from) also ships batch
// analytics workloads; these profiles model their first-order behavior so
// downstream studies can explore the near-threshold trade-offs of
// throughput-oriented (non-latency-critical) scale-out computation. They
// are not part of All() and do not appear in the paper's figures.

// DataAnalytics returns a CloudSuite Data Analytics clone (MapReduce-style
// machine learning over a large corpus): batch work with no tail-latency
// QoS, streaming-heavy scans with a compute kernel per record.
func DataAnalytics() *Profile {
	return &Profile{
		Name: "data-analytics", Class: Virtualized,
		LoadFrac: 0.30, StoreFrac: 0.10, BranchFrac: 0.10, FPFrac: 0.12,
		DepGeomP:       0.42,
		StaticBranches: 2048, BranchZipf: 1.0, BiasAlpha: 0.25, BiasBeta: 0.10,
		CodeBytes: 2 << 20, CodeJumpP: 0.10, CodeZipfTheta: 1.35,
		DataBytes: 8 << 30, StackBytes: 8 << 10, StackFrac: 0.42,
		HotBytes: 8 << 20, HotFrac: 0.38, HotZipf: 1.45, StreamFrac: 0.18,
		ColdZipf: 0.6,
		OSFrac:   0.10, OSBurst: 300,
	}
}

// GraphAnalytics returns a CloudSuite Graph Analytics clone (PageRank-style
// edge traversal): pointer-chasing over an irregular multi-GB graph — the
// most memory-latency-bound profile in the set.
func GraphAnalytics() *Profile {
	return &Profile{
		Name: "graph-analytics", Class: Virtualized,
		LoadFrac: 0.36, StoreFrac: 0.06, BranchFrac: 0.12, FPFrac: 0.04,
		DepGeomP:       0.52, // each hop feeds the next: serialized misses
		StaticBranches: 1024, BranchZipf: 1.0, BiasAlpha: 0.35, BiasBeta: 0.15,
		CodeBytes: 512 << 10, CodeJumpP: 0.08, CodeZipfTheta: 1.40,
		DataBytes: 10 << 30, StackBytes: 8 << 10, StackFrac: 0.34,
		HotBytes: 16 << 20, HotFrac: 0.52, HotZipf: 1.25, StreamFrac: 0.02,
		ColdZipf: 0.45,
		OSFrac:   0.06, OSBurst: 250,
	}
}

// Extended returns the extension workloads (not part of the paper's
// evaluation set).
func Extended() []*Profile {
	return []*Profile{DataAnalytics(), GraphAnalytics()}
}
