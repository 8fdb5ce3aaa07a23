// Package workload provides synthetic statistical clones of the paper's
// applications (Sec. III-A): the four CloudSuite scale-out workloads (Data
// Serving, Web Search, Web Serving, Media Streaming) and the virtualized
// banking workloads (VMs low-mem and high-mem) whose memory statistics
// derive from the Bitbrains business-critical traces.
//
// Each Profile parameterizes a deterministic instruction/memory trace
// generator: instruction mix, register dependency distances (ILP), static
// branch population and bias skew (branch predictability), code footprint
// (instruction working set), data footprint with hot/cold/streaming
// regions (cache behavior and memory boundedness), and the OS-execution
// fraction that separates UIPC from raw IPC. The knobs are set so the
// workloads reproduce the published first-order characteristics of
// scale-out applications: low IPC, multi-MB instruction working sets, and
// secondary data working sets far beyond the LLC.
package workload

import "time"

// Class distinguishes the two deployment scenarios of the paper
// (Sec. III-B).
type Class int

const (
	// ScaleOut denotes latency-critical private-cloud applications bounded
	// by 99th-percentile tail latency.
	ScaleOut Class = iota
	// Virtualized denotes public-cloud batch VMs bounded by execution-time
	// degradation (2x-4x).
	Virtualized
)

func (c Class) String() string {
	switch c {
	case ScaleOut:
		return "scale-out"
	case Virtualized:
		return "virtualized"
	default:
		return "unknown"
	}
}

// Profile describes one synthetic workload.
type Profile struct {
	Name  string
	Class Class

	// QoS parameters (Sec. III-B, V-A). For scale-out apps, QoSLimit is
	// the 99th-percentile latency bound and Baseline99p the minimum
	// tail latency measured at 2GHz in a near-zero-contention setup (the
	// paper measures these on an i7-4785T; here they are documented
	// constants). For VMs both are zero and degradation limits apply.
	QoSLimit    time.Duration
	Baseline99p time.Duration

	// Instruction mix (fractions of dynamic instructions; the remainder is
	// integer ALU).
	LoadFrac   float64
	StoreFrac  float64
	BranchFrac float64
	FPFrac     float64

	// DepGeomP is the parameter of the geometric distribution of register
	// dependency distances: the probability that an instruction depends on
	// its immediate predecessor. Higher values serialize execution (less
	// ILP).
	DepGeomP float64

	// Branch behavior: StaticBranches static sites selected with Zipf skew
	// BranchZipf; each site's taken-bias is drawn from Beta(BiasAlpha,
	// BiasBeta) — U-shaped parameters (<1) yield mostly-predictable
	// branches.
	StaticBranches int
	BranchZipf     float64
	BiasAlpha      float64
	BiasBeta       float64

	// Code footprint (instruction working set). Scale-out apps famously
	// have multi-MB instruction footprints that thrash 32KB L1Is.
	CodeBytes     uint64
	CodeJumpP     float64 // probability a taken branch jumps far (new region)
	CodeZipfTheta float64 // skew of far-jump targets over the code footprint

	// Data side, four tiers mirroring the working-set hierarchy of real
	// server applications:
	//   - stack: a small, L1-resident primary working set;
	//   - hot:   a skewed secondary working set contended at LLC scale;
	//   - stream: sequential scans through the cold data;
	//   - cold:  the full footprint, the source of DRAM traffic.
	DataBytes  uint64  // total per-core data footprint
	StackBytes uint64  // primary working set size (fits the L1)
	StackFrac  float64 // fraction of accesses to the stack tier
	HotBytes   uint64  // hot region size
	HotFrac    float64 // fraction of accesses to the hot region
	HotZipf    float64 // skew within the hot region
	StreamFrac float64 // fraction of accesses that stream sequentially
	ColdZipf   float64 // skew of cold-region accesses
	// OSFrac is the fraction of committed instructions executing OS code
	// (counted in cycles, excluded from user-IPC; Sec. IV). OS execution
	// arrives in bursts of mean OSBurst instructions.
	OSFrac  float64
	OSBurst float64
}

// DataServing returns the CloudSuite Data Serving clone (Cassandra-style
// NoSQL store): huge secondary working set, low ILP, OS-heavy, 20ms QoS.
func DataServing() *Profile {
	return &Profile{
		Name: "data-serving", Class: ScaleOut,
		QoSLimit: 20 * time.Millisecond, Baseline99p: 8 * time.Millisecond,
		LoadFrac: 0.28, StoreFrac: 0.10, BranchFrac: 0.16, FPFrac: 0.0,
		DepGeomP:       0.48,
		StaticBranches: 8192, BranchZipf: 0.9, BiasAlpha: 0.25, BiasBeta: 0.10,
		CodeBytes: 4 << 20, CodeJumpP: 0.14, CodeZipfTheta: 1.35,
		DataBytes: 8 << 30, StackBytes: 8 << 10, StackFrac: 0.46,
		HotBytes: 6 << 20, HotFrac: 0.515, HotZipf: 1.55, StreamFrac: 0.012,
		ColdZipf: 0.65,
		OSFrac:   0.25, OSBurst: 400,
	}
}

// WebSearch returns the CloudSuite Web Search clone (index serving):
// moderate ILP, large read-mostly index, 200ms QoS.
func WebSearch() *Profile {
	return &Profile{
		Name: "web-search", Class: ScaleOut,
		QoSLimit: 200 * time.Millisecond, Baseline99p: 55 * time.Millisecond,
		LoadFrac: 0.30, StoreFrac: 0.06, BranchFrac: 0.14, FPFrac: 0.04,
		DepGeomP:       0.40,
		StaticBranches: 4096, BranchZipf: 1.0, BiasAlpha: 0.25, BiasBeta: 0.08,
		CodeBytes: 2 << 20, CodeJumpP: 0.12, CodeZipfTheta: 1.40,
		DataBytes: 6 << 30, StackBytes: 8 << 10, StackFrac: 0.47,
		HotBytes: 24 << 20, HotFrac: 0.508, HotZipf: 1.60, StreamFrac: 0.015,
		ColdZipf: 0.85,
		OSFrac:   0.12, OSBurst: 300,
	}
}

// WebServing returns the CloudSuite Web Serving clone (dynamic web stack):
// the largest instruction footprint, OS-dominated, 200ms QoS.
func WebServing() *Profile {
	return &Profile{
		Name: "web-serving", Class: ScaleOut,
		QoSLimit: 200 * time.Millisecond, Baseline99p: 95 * time.Millisecond,
		LoadFrac: 0.26, StoreFrac: 0.12, BranchFrac: 0.18, FPFrac: 0.0,
		DepGeomP:       0.45,
		StaticBranches: 16384, BranchZipf: 0.8, BiasAlpha: 0.30, BiasBeta: 0.12,
		CodeBytes: 8 << 20, CodeJumpP: 0.18, CodeZipfTheta: 1.28,
		DataBytes: 3 << 30, StackBytes: 8 << 10, StackFrac: 0.49,
		HotBytes: 4 << 20, HotFrac: 0.487, HotZipf: 1.55, StreamFrac: 0.013,
		ColdZipf: 0.75,
		OSFrac:   0.32, OSBurst: 500,
	}
}

// MediaStreaming returns the CloudSuite Media Streaming clone: sequential
// media reads dominate, small code, 100ms QoS.
func MediaStreaming() *Profile {
	return &Profile{
		Name: "media-streaming", Class: ScaleOut,
		QoSLimit: 100 * time.Millisecond, Baseline99p: 50 * time.Millisecond,
		LoadFrac: 0.30, StoreFrac: 0.08, BranchFrac: 0.11, FPFrac: 0.02,
		DepGeomP:       0.38,
		StaticBranches: 2048, BranchZipf: 1.1, BiasAlpha: 0.20, BiasBeta: 0.08,
		CodeBytes: 1 << 20, CodeJumpP: 0.10, CodeZipfTheta: 1.45,
		DataBytes: 6 << 30, StackBytes: 8 << 10, StackFrac: 0.40,
		HotBytes: 2 << 20, HotFrac: 0.35, HotZipf: 1.55, StreamFrac: 0.24,
		ColdZipf: 0.5,
		OSFrac:   0.28, OSBurst: 350,
	}
}

// VMLowMem returns the synthetic banking VM with 100MB memory provisioning
// (paper Sec. III-B2): pointer-chasing financial records across its small
// footprint, modest ILP.
func VMLowMem() *Profile {
	return &Profile{
		Name: "vm-low-mem", Class: Virtualized,
		LoadFrac: 0.30, StoreFrac: 0.12, BranchFrac: 0.12, FPFrac: 0.10,
		DepGeomP:       0.62,
		StaticBranches: 1024, BranchZipf: 1.0, BiasAlpha: 0.25, BiasBeta: 0.10,
		CodeBytes: 512 << 10, CodeJumpP: 0.08, CodeZipfTheta: 1.50,
		DataBytes: 100 << 20, StackBytes: 8 << 10, StackFrac: 0.78,
		HotBytes: 1 << 20, HotFrac: 0.20, HotZipf: 1.50, StreamFrac: 0.01,
		ColdZipf: 0.3,
		OSFrac:   0.06, OSBurst: 250,
	}
}

// VMHighMem returns the synthetic banking VM with 700MB provisioning:
// blocked matrix analytics — larger footprint but more CPU-bound (higher
// UIPS than low-mem, paper Sec. V-B1).
func VMHighMem() *Profile {
	return &Profile{
		Name: "vm-high-mem", Class: Virtualized,
		LoadFrac: 0.34, StoreFrac: 0.10, BranchFrac: 0.06, FPFrac: 0.30,
		DepGeomP:       0.44,
		StaticBranches: 512, BranchZipf: 1.2, BiasAlpha: 0.15, BiasBeta: 0.05,
		CodeBytes: 256 << 10, CodeJumpP: 0.06, CodeZipfTheta: 1.45,
		DataBytes: 700 << 20, StackBytes: 16 << 10, StackFrac: 0.84,
		HotBytes: 3 << 20, HotFrac: 0.145, HotZipf: 1.70, StreamFrac: 0.010,
		ColdZipf: 0.4,
		OSFrac:   0.04, OSBurst: 250,
	}
}

// Bubble returns a synthetic memory antagonist in the spirit of the
// Bubble-Up methodology the paper cites (Mars et al.): a store-heavy
// streaming kernel with effectively no cache locality, sized to saturate
// LLC capacity and DRAM bandwidth. It is used by the interference analysis
// (paper Sec. III-B1) and is not part of the evaluation workload set.
func Bubble() *Profile {
	return &Profile{
		Name: "bubble", Class: Virtualized,
		LoadFrac: 0.35, StoreFrac: 0.20, BranchFrac: 0.05, FPFrac: 0.0,
		DepGeomP:       0.05, // independent accesses -> maximum MLP pressure
		StaticBranches: 64, BranchZipf: 1, BiasAlpha: 0.1, BiasBeta: 0.1,
		CodeBytes: 16 << 10, CodeJumpP: 0.01, CodeZipfTheta: 1,
		DataBytes: 4 << 30, StackBytes: 4 << 10, StackFrac: 0.02,
		HotBytes: 64 << 10, HotFrac: 0.02, HotZipf: 1, StreamFrac: 0.55,
		ColdZipf: 0.05,
		OSFrac:   0, OSBurst: 1,
	}
}

// ScaleOutProfiles returns the four CloudSuite clones in the paper's order.
func ScaleOutProfiles() []*Profile {
	return []*Profile{DataServing(), WebSearch(), WebServing(), MediaStreaming()}
}

// VMProfiles returns the two virtualized workload classes.
func VMProfiles() []*Profile {
	return []*Profile{VMLowMem(), VMHighMem()}
}

// All returns every workload in the evaluation.
func All() []*Profile {
	return append(ScaleOutProfiles(), VMProfiles()...)
}
