package workload

import (
	"fmt"
	"math"

	"ntcsim/internal/rng"
)

// Kind classifies a dynamic instruction.
type Kind uint8

const (
	// ALU is a single-cycle integer operation.
	ALU Kind = iota
	// FP is a multi-cycle floating-point operation.
	FP
	// Load reads memory.
	Load
	// Store writes memory.
	Store
	// Branch is a conditional branch.
	Branch
)

func (k Kind) String() string {
	switch k {
	case ALU:
		return "alu"
	case FP:
		return "fp"
	case Load:
		return "load"
	case Store:
		return "store"
	case Branch:
		return "branch"
	default:
		return "?"
	}
}

// Instr is one dynamic instruction of the synthetic trace.
type Instr struct {
	Kind Kind
	// PC is the instruction address (4-byte instructions).
	PC uint64
	// Addr is the data address for loads and stores.
	Addr uint64
	// DepDist is the distance (in dynamic instructions) to the most recent
	// producer this instruction depends on; 0 means no register dependency.
	DepDist int
	// BranchID identifies the static branch site (branches only).
	BranchID int32
	// Taken is the branch outcome (branches only).
	Taken bool
	// OS marks operating-system execution: counted in cycles but excluded
	// from user instructions (UIPC, paper Sec. IV).
	OS bool
}

// Per-core address-space layout. Each core owns a 16GB window keyed by its
// global core ID, matching the 64GB / 4-cores-per-cluster organization:
//
//	[0, dataTop)          data (hot region first, then cold/stream)
//	[codeBase, +CodeBytes) application code
//	[osCodeBase, +osCode)  OS text (shared layout, per-core copy)
//	[osDataBase, ...)      OS data
const (
	coreWindowBits = 34 // 16GB per core
	codeBase       = uint64(12) << 30
	osCodeBase     = uint64(13) << 30
	osCodeBytes    = uint64(2) << 20
	osDataBase     = uint64(14) << 30
	osDataBytes    = uint64(512) << 10
	instrBytes     = 4
)

// Generator produces the deterministic instruction stream of one core
// running one workload. Two generators with the same (profile, coreID,
// seed stream) produce identical traces.
//
// Every probability test compares the 53 bits a Float64 draw would use
// with a precomputed rng.Threshold instead of converting to float, and
// every bounded draw goes through an rng.Uniform with its rejection bound
// precomputed (a mask for powers of two). Both consume and return exactly
// what Float64/Bool and Uint64n do.
type Generator struct {
	p    *Profile
	base uint64 // core window base address

	mix  rng.Stream
	dep  rng.Stream
	brs  rng.Stream
	mem  rng.Stream
	code rng.Stream
	os   rng.Stream

	branchPick rng.Zipf
	tables     *Tables // branch-bias thresholds, shared read-only

	depGeom *rng.Geometric // dependency distance, p = DepGeomP
	osGeom  *rng.Geometric // OS burst length, p = 1/OSBurst; nil when OSFrac <= 0

	// Thresholds of the cumulative instruction mix (load, +store,
	// +branch, +FP), the cumulative data tiers (stack, +hot, +stream),
	// OS entry and far jump.
	loadT, storeT, branchT, fpT uint64
	stackT, hotT, streamT       uint64
	enterT                      uint64 // per-instruction OS entry, 0 when OSFrac <= 0
	farT                        uint64 // far jump on a taken branch, CodeJumpP

	coldZipf   rng.Zipf
	hotZipf    rng.Zipf
	coldLines  uint64
	hotLines   uint64
	streamPos  uint64
	codeTarget rng.Zipf
	codeLines  uint64

	// Uniform draws over the stack lines and the lines of one hot or cold
	// Zipf chunk (bounds derived from the footprints).
	stackLine rng.Uniform
	hotChunk  rng.Uniform
	coldChunk rng.Uniform
	// Bytes of code per far-jump Zipf rank.
	codeChunkBytes uint64
	osChunkBytes   uint64

	pc       uint64
	inOS     bool
	osLeft   int
	osPC     uint64
	produced uint64
}

// Fixed per-instruction tests and draws, shared by every generator.
var (
	osStackT  = rng.Threshold(0.60) // OS data: per-CPU kernel stack
	osHotT    = rng.Threshold(0.88) // OS data: + hot kernel structures
	backwardT = rng.Threshold(0.6)  // near jump goes backward
	lineByte  = rng.NewUniform(64)
	osStack   = rng.NewUniform(8 << 10)
	osHotLine = rng.NewUniform(32 << 10 / 64)
	osLine    = rng.NewUniform(osDataBytes / 64)
	nearJump  = rng.NewUniform(512)
)

// Tables is the part of a generator NewGenerator draws rather than looks
// up: one taken-bias threshold per static branch site, drawn from
// Beta(BiasAlpha, BiasBeta). Drawing it costs up to StaticBranches Beta
// deviates, so clusters restored from one in-memory checkpoint share it
// (NewGeneratorWith). It is immutable once built.
type Tables struct {
	key    tablesKey
	biases []uint64 // rng.Threshold of each site's taken probability
}

// tablesKey is everything a Tables' contents depend on. The bias stream's
// starting state hashes the seed, the profile name and the core ID.
type tablesKey struct {
	stream      uint64
	sites       int
	alpha, beta uint64 // math.Float64bits
}

// newTables draws the bias table for key from the stream at key.stream.
func newTables(key tablesKey) *Tables {
	t := &Tables{key: key, biases: make([]uint64, key.sites)}
	bs := rng.New(key.stream)
	a, b := math.Float64frombits(key.alpha), math.Float64frombits(key.beta)
	for i := range t.biases {
		t.biases[i] = rng.Threshold(bs.Beta(a, b))
	}
	return t
}

// NewGenerator builds the generator for profile p on global core coreID,
// deriving all internal streams from seed.
func NewGenerator(p *Profile, coreID int, seed *rng.Stream) *Generator {
	return NewGeneratorWith(p, coreID, seed, nil)
}

// NewGeneratorWith is NewGenerator, reusing t (from Generator.Tables)
// instead of drawing the tables again when t was drawn for the same seed,
// profile name, core and branch parameters. Otherwise, and when t is nil,
// it draws them afresh, so the generator is always the one NewGenerator
// builds.
func NewGeneratorWith(p *Profile, coreID int, seed *rng.Stream, t *Tables) *Generator {
	if p.DataBytes == 0 || p.CodeBytes == 0 {
		panic(fmt.Sprintf("workload %q: zero footprint", p.Name))
	}
	root := seed.Derive(fmt.Sprintf("%s/core%d", p.Name, coreID))
	g := &Generator{
		p:    p,
		base: uint64(coreID) << coreWindowBits,
		mix:  *root.Derive("mix"),
		dep:  *root.Derive("dep"),
		brs:  *root.Derive("branch"),
		mem:  *root.Derive("mem"),
		code: *root.Derive("code"),
		os:   *root.Derive("os"),
	}
	g.branchPick = *rng.NewZipf(root.Derive("branch-pick"), p.StaticBranches, p.BranchZipf)
	g.depGeom = rng.NewGeometric(p.DepGeomP)
	if p.OSFrac > 0 {
		g.osGeom = rng.NewGeometric(1 / p.OSBurst)
		// Enter probability chosen so mean user-run length yields OSFrac.
		g.enterT = rng.Threshold(p.OSFrac / ((1 - p.OSFrac) * p.OSBurst))
	}
	key := tablesKey{
		stream: root.Derive("biases").State(),
		sites:  p.StaticBranches,
		alpha:  math.Float64bits(p.BiasAlpha),
		beta:   math.Float64bits(p.BiasBeta),
	}
	if t == nil || t.key != key {
		t = newTables(key)
	}
	g.tables = t
	// The sums are formed in the order the reference cascade
	// (r < LoadFrac, r < LoadFrac+StoreFrac, ...) forms them.
	g.loadT = rng.Threshold(p.LoadFrac)
	g.storeT = rng.Threshold(p.LoadFrac + p.StoreFrac)
	g.branchT = rng.Threshold(p.LoadFrac + p.StoreFrac + p.BranchFrac)
	g.fpT = rng.Threshold(p.LoadFrac + p.StoreFrac + p.BranchFrac + p.FPFrac)
	g.stackT = rng.Threshold(p.StackFrac)
	g.hotT = rng.Threshold(p.StackFrac + p.HotFrac)
	g.streamT = rng.Threshold(p.StackFrac + p.HotFrac + p.StreamFrac)
	g.farT = rng.Threshold(p.CodeJumpP)
	const line = 64
	g.stackLine = rng.NewUniform(max(p.StackBytes/line, 1))
	g.hotLines = p.HotBytes / line
	if g.hotLines == 0 {
		g.hotLines = 1
	}
	cold := p.DataBytes - p.HotBytes - p.StackBytes
	if p.DataBytes < p.HotBytes+p.StackBytes {
		cold = line
	}
	g.coldLines = cold / line
	if g.coldLines == 0 {
		g.coldLines = 1
	}
	// The cold Zipf table is capped; ranks index coarse 256-line chunks so
	// multi-GB footprints stay tractable while preserving skew.
	chunks := int(g.coldLines / 256)
	if chunks < 1 {
		chunks = 1
	}
	if chunks > 1<<16 {
		chunks = 1 << 16
	}
	g.coldZipf = *rng.NewZipf(root.Derive("cold"), chunks, p.ColdZipf)
	g.coldChunk = rng.NewUniform(max(g.coldLines/uint64(chunks), 1))
	// The hot region is itself skewed (stack frames, hot metadata), giving
	// the L1-level locality real applications exhibit. Ranks index 4-line
	// chunks.
	hotChunks := int(g.hotLines / 4)
	if hotChunks < 1 {
		hotChunks = 1
	}
	if hotChunks > 1<<15 {
		hotChunks = 1 << 15
	}
	g.hotZipf = *rng.NewZipf(root.Derive("hot"), hotChunks, p.HotZipf)
	g.hotChunk = rng.NewUniform(max(g.hotLines/uint64(hotChunks), 1))
	g.codeLines = p.CodeBytes / line
	codeChunks := int(g.codeLines)
	if codeChunks > 1<<14 {
		codeChunks = 1 << 14
	}
	if codeChunks < 1 {
		codeChunks = 1
	}
	g.codeTarget = *rng.NewZipf(root.Derive("code-target"), codeChunks, p.CodeZipfTheta)
	g.codeChunkBytes = max(p.CodeBytes/uint64(codeChunks), 64)
	g.osChunkBytes = max(osCodeBytes/uint64(codeChunks), 64)
	g.pc = g.base + codeBase
	g.osPC = g.base + osCodeBase
	return g
}

// Profile returns the generator's workload profile.
func (g *Generator) Profile() *Profile { return g.p }

// Tables returns the generator's immutable tables, for NewGeneratorWith.
func (g *Generator) Tables() *Tables { return g.tables }

// Produced returns how many instructions have been generated.
func (g *Generator) Produced() uint64 { return g.produced }

// Next fills in the next dynamic instruction.
func (g *Generator) Next(in *Instr) {
	g.NextWarm(in)
	// Register dependency distance: geometric with the profile's ILP
	// parameter, capped so it stays inside any realistic window.
	d := g.dep.Geometric(g.depGeom)
	if d > 64 {
		d = 0 // effectively independent
	}
	in.DepDist = d
}

// NextWarm fills in the next dynamic instruction for functional warming:
// every field Next fills except DepDist, which stays 0, and without
// drawing from the dependency stream (the only draw Next adds). After n
// NextWarm calls, SkipDeps(n) leaves the generator exactly where n Next
// calls would have; call it before the next Next or State.
func (g *Generator) NextWarm(in *Instr) {
	g.produced++
	g.maybeToggleOS()
	*in = Instr{OS: g.inOS}

	// m is the 53-bit uniform Float64 would return as m/2^53, so each
	// m < threshold is the reference r < fraction test.
	m := g.mix.Uint64() >> 11
	switch {
	case m < g.loadT:
		in.Kind = Load
		in.Addr = g.dataAddr()
	case m < g.storeT:
		in.Kind = Store
		in.Addr = g.dataAddr()
	case m < g.branchT:
		in.Kind = Branch
		id := g.branchPick.Next()
		in.BranchID = int32(id)
		in.Taken = g.brs.Below(g.tables.biases[id])
	case m < g.fpT:
		in.Kind = FP
	default:
		in.Kind = ALU
	}

	in.PC = g.nextPC(in)
}

// SkipDeps advances the dependency stream past the n draws that n Next
// calls would have made, in O(1). It completes n NextWarm calls.
func (g *Generator) SkipDeps(n uint64) {
	g.dep.SkipGeometric(g.depGeom, n)
}

// maybeToggleOS switches between user and OS execution in bursts sized so
// the long-run OS fraction matches the profile.
func (g *Generator) maybeToggleOS() {
	if g.osGeom == nil { // OSFrac <= 0
		return
	}
	if g.inOS {
		g.osLeft--
		if g.osLeft <= 0 {
			g.inOS = false
		}
		return
	}
	if g.os.Below(g.enterT) {
		g.inOS = true
		g.osLeft = g.os.Geometric(g.osGeom)
	}
}

// dataAddr draws a data address from the stack/hot/stream/cold mixture.
// Per-core layout: [0, StackBytes) stack, [StackBytes, +HotBytes) hot,
// then the cold region.
func (g *Generator) dataAddr() uint64 {
	const line = 64
	if g.inOS {
		// OS accesses in three tiers: per-CPU kernel stack (L1-resident),
		// hot kernel structures (runqueues, socket buffers), and the long
		// tail of LLC-scale kernel data.
		m := g.mem.Uint64() >> 11
		switch {
		case m < osStackT:
			return g.base + osDataBase + g.mem.Uniform(&osStack)
		case m < osHotT:
			return g.base + osDataBase + g.mem.Uniform(&osHotLine)*line
		default:
			return g.base + osDataBase + g.mem.Uniform(&osLine)*line
		}
	}
	m := g.mem.Uint64() >> 11
	p := g.p
	hotBase := p.StackBytes
	coldBase := p.StackBytes + p.HotBytes
	switch {
	case m < g.stackT:
		// Primary working set: uniform within an L1-sized region.
		return g.base + g.mem.Uniform(&g.stackLine)*line + g.mem.Uniform(&lineByte)
	case m < g.hotT:
		// Hot region: Zipf over chunks, uniform within a chunk.
		chunk := uint64(g.hotZipf.Next())
		ln := chunk*g.hotChunk.N() + g.mem.Uniform(&g.hotChunk)
		if ln >= g.hotLines {
			ln = g.hotLines - 1
		}
		return g.base + hotBase + ln*line + g.mem.Uniform(&lineByte)
	case m < g.streamT:
		// Streaming cursor through the cold region, advancing at word
		// granularity (a scan touches every word of a line before moving
		// on, so only one access per line misses).
		g.streamPos++
		wordsPerLine := uint64(line / 8)
		ln := (g.streamPos / wordsPerLine) % g.coldLines
		return g.base + coldBase + ln*line + (g.streamPos%wordsPerLine)*8
	default:
		// Cold region: Zipf over coarse chunks, uniform within a chunk.
		chunk := uint64(g.coldZipf.Next())
		ln := chunk*g.coldChunk.N() + g.mem.Uniform(&g.coldChunk)
		if ln >= g.coldLines {
			ln = g.coldLines - 1
		}
		return g.base + coldBase + ln*line
	}
}

// nextPC advances the program counter: sequential execution with jumps on
// taken branches (near jump or far jump per the profile), wrapping inside
// the code footprint.
func (g *Generator) nextPC(in *Instr) uint64 {
	pcp := &g.pc
	base := g.base + codeBase
	limit := g.p.CodeBytes
	chunkBytes := g.codeChunkBytes
	if g.inOS {
		pcp = &g.osPC
		base = g.base + osCodeBase
		limit = osCodeBytes
		chunkBytes = g.osChunkBytes
	}
	pc := *pcp
	if in.Kind == Branch && in.Taken {
		if g.code.Below(g.farT) {
			// Far jump: Zipf-selected 64B chunk of the footprint.
			chunk := uint64(g.codeTarget.Next())
			off := chunk * chunkBytes
			*pcp = base + off%limit
		} else {
			// Near jump: short backward loop edge or forward skip.
			delta := g.code.Uniform(&nearJump) * instrBytes
			if g.code.Below(backwardT) {
				// backward
				off := pc - base
				if delta > off {
					delta = off
				}
				*pcp = pc - delta
			} else {
				*pcp = base + (pc-base+delta)%limit
			}
		}
	} else {
		// (pc-base+instrBytes) % limit by repeated subtraction, which is
		// exact for any offset. Every assignment here keeps pc-base below
		// limit, so for any limit >= instrBytes the loop runs at most once.
		off := pc - base + instrBytes
		for off >= limit {
			off -= limit
		}
		*pcp = base + off
	}
	return pc
}

// GeneratorState is the dynamic state of a Generator, sufficient to resume
// an identical trace when paired with the original (profile, coreID, seed)
// construction parameters. Lookup tables (Zipf CDFs, branch biases) are
// rebuilt deterministically at construction (the Zipf and geometric tables
// are shared per process, the bias table through NewGeneratorWith) and are
// not stored.
type GeneratorState struct {
	Mix, Dep, Brs, Mem, Code, OS              uint64
	BranchPick, ColdZipf, HotZipf, CodeTarget uint64
	PC, OSPC                                  uint64
	InOS                                      bool
	OSLeft                                    int
	StreamPos                                 uint64
	Produced                                  uint64
}

// State captures the generator's dynamic state.
func (g *Generator) State() GeneratorState {
	return GeneratorState{
		Mix: g.mix.State(), Dep: g.dep.State(), Brs: g.brs.State(),
		Mem: g.mem.State(), Code: g.code.State(), OS: g.os.State(),
		BranchPick: g.branchPick.StreamState(),
		ColdZipf:   g.coldZipf.StreamState(),
		HotZipf:    g.hotZipf.StreamState(),
		CodeTarget: g.codeTarget.StreamState(),
		PC:         g.pc, OSPC: g.osPC,
		InOS: g.inOS, OSLeft: g.osLeft,
		StreamPos: g.streamPos, Produced: g.produced,
	}
}

// Reseed re-derives every internal random stream from seed with the same
// labeling scheme NewGenerator uses for (profile, coreID), while preserving
// all positional state (PC, stream cursor, OS mode, produced count) and the
// structural tables (Zipf CDFs, per-branch biases). A sweep engine hands
// each operating point its own substream (rng.Stream.Split by point index)
// so the points draw decorrelated randomness yet remain bit-reproducible
// regardless of evaluation order or worker count.
func (g *Generator) Reseed(coreID int, seed *rng.Stream) {
	root := seed.Derive(fmt.Sprintf("%s/core%d", g.p.Name, coreID))
	g.mix.SetState(root.Derive("mix").State())
	g.dep.SetState(root.Derive("dep").State())
	g.brs.SetState(root.Derive("branch").State())
	g.mem.SetState(root.Derive("mem").State())
	g.code.SetState(root.Derive("code").State())
	g.os.SetState(root.Derive("os").State())
	g.branchPick.SetStreamState(root.Derive("branch-pick").State())
	g.coldZipf.SetStreamState(root.Derive("cold").State())
	g.hotZipf.SetStreamState(root.Derive("hot").State())
	g.codeTarget.SetStreamState(root.Derive("code-target").State())
}

// Restore resumes from a state captured with State on a generator built
// with the same construction parameters.
func (g *Generator) Restore(st GeneratorState) {
	g.mix.SetState(st.Mix)
	g.dep.SetState(st.Dep)
	g.brs.SetState(st.Brs)
	g.mem.SetState(st.Mem)
	g.code.SetState(st.Code)
	g.os.SetState(st.OS)
	g.branchPick.SetStreamState(st.BranchPick)
	g.coldZipf.SetStreamState(st.ColdZipf)
	g.hotZipf.SetStreamState(st.HotZipf)
	g.codeTarget.SetStreamState(st.CodeTarget)
	g.pc, g.osPC = st.PC, st.OSPC
	g.inOS, g.osLeft = st.InOS, st.OSLeft
	g.streamPos, g.produced = st.StreamPos, st.Produced
}
