package workload

import (
	"fmt"

	"ntcsim/internal/cache"
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

// Plan is the immutable part of a generator, everything NewPlan derives
// from (profile, core, seed). Its branch biases cost up to StaticBranches
// Beta deviates, so generators cloned from one checkpoint share one plan,
// copied by value around the same bias table.
type Plan struct {
	p    *Profile
	core int
	seed rng.Stream // the stream NewGenerator starts the cursor from
	base uint64     // core window base address

	biases []uint64 // rng.Threshold of each branch site's taken probability

	depGeom *rng.Geometric // dependency distance, p = DepGeomP
	osGeom  *rng.Geometric // OS burst length, p = 1/OSBurst; nil when OSFrac <= 0

	// Thresholds of the cumulative instruction mix (load, +store,
	// +branch, +FP), the cumulative data tiers (stack, +hot, +stream),
	// OS entry and far jump.
	loadT, storeT, branchT, fpT uint64
	stackT, hotT, streamT       uint64
	enterT                      uint64 // per-instruction OS entry, 0 when OSFrac <= 0
	farT                        uint64 // far jump on a taken branch, CodeJumpP

	coldLines, hotLines               uint64
	coldChunks, hotChunks, codeChunks int // Zipf ranks of the three regions

	// Uniform draws over the stack lines and the lines of one hot or cold
	// Zipf chunk (bounds derived from the footprints).
	stackLine, hotChunk, coldChunk rng.Uniform
	codeChunkBytes, osChunkBytes   uint64 // bytes of code per far-jump Zipf rank
}

// Generator produces the deterministic instruction stream of one core
// running one workload: a cursor over a Plan, which Clone copies.
// Generators built from equal plans produce identical traces.
//
// Every probability test compares the 53 bits a Float64 draw would use
// with a precomputed rng.Threshold instead of converting to float, and
// every bounded draw goes through an rng.Uniform with its rejection bound
// precomputed (a mask for powers of two). Both consume and return exactly
// what Float64/Bool and Uint64n do.
type Generator struct {
	plan Plan // by value: the per-instruction path reads it without a pointer hop

	mix, dep, brs, mem, code, os              rng.Stream
	branchPick, coldZipf, hotZipf, codeTarget rng.Zipf

	pc, osPC  uint64
	inOS      bool
	osLeft    int
	streamPos uint64
}

// Fixed per-instruction tests and draws, shared by every generator.
var (
	osStackT  = rng.Threshold(0.60) // OS data: per-CPU kernel stack
	osHotT    = rng.Threshold(0.88) // OS data: + hot kernel structures
	backwardT = rng.Threshold(0.6)  // near jump goes backward
	lineByte  = rng.NewUniform(cache.LineBytes)
	osStack   = rng.NewUniform(8 << 10)
	osHotLine = rng.NewUniform(32 << 10 / cache.LineBytes)
	osLine    = rng.NewUniform(osDataBytes / cache.LineBytes)
	nearJump  = rng.NewUniform(512)
)

// NewPlan builds the plan for profile p on global core coreID, drawing
// the branch biases from seed.
func NewPlan(p *Profile, coreID int, seed *rng.Stream) Plan {
	if p.DataBytes == 0 || p.CodeBytes == 0 {
		panic(fmt.Sprintf("workload %q: zero footprint", p.Name))
	}
	pl := Plan{
		p:       p,
		core:    coreID,
		seed:    *seed,
		base:    uint64(coreID) << coreWindowBits,
		biases:  make([]uint64, p.StaticBranches),
		depGeom: rng.NewGeometric(p.DepGeomP),
	}
	bs := pl.root(seed).Derive("biases")
	for i := range pl.biases {
		pl.biases[i] = rng.Threshold(bs.Beta(p.BiasAlpha, p.BiasBeta))
	}
	if p.OSFrac > 0 {
		pl.osGeom = rng.NewGeometric(1 / p.OSBurst)
		// Enter probability chosen so mean user-run length yields OSFrac.
		pl.enterT = rng.Threshold(p.OSFrac / ((1 - p.OSFrac) * p.OSBurst))
	}
	// The sums are formed in the order the reference cascade
	// (r < LoadFrac, r < LoadFrac+StoreFrac, ...) forms them.
	pl.loadT = rng.Threshold(p.LoadFrac)
	pl.storeT = rng.Threshold(p.LoadFrac + p.StoreFrac)
	pl.branchT = rng.Threshold(p.LoadFrac + p.StoreFrac + p.BranchFrac)
	pl.fpT = rng.Threshold(p.LoadFrac + p.StoreFrac + p.BranchFrac + p.FPFrac)
	pl.stackT = rng.Threshold(p.StackFrac)
	pl.hotT = rng.Threshold(p.StackFrac + p.HotFrac)
	pl.streamT = rng.Threshold(p.StackFrac + p.HotFrac + p.StreamFrac)
	pl.farT = rng.Threshold(p.CodeJumpP)
	pl.stackLine = rng.NewUniform(max(p.StackBytes/cache.LineBytes, 1))
	pl.hotLines = max(p.HotBytes/cache.LineBytes, 1)
	cold := p.DataBytes - p.HotBytes - p.StackBytes
	if p.DataBytes < p.HotBytes+p.StackBytes {
		cold = cache.LineBytes
	}
	pl.coldLines = max(cold/cache.LineBytes, 1)
	// The cold Zipf table is capped; ranks index coarse 256-line chunks so
	// multi-GB footprints stay tractable while preserving skew.
	pl.coldChunks = min(max(int(pl.coldLines/256), 1), 1<<16)
	pl.coldChunk = rng.NewUniform(max(pl.coldLines/uint64(pl.coldChunks), 1))
	// The hot region is itself skewed (stack frames, hot metadata), giving
	// the L1-level locality real applications exhibit. Ranks index 4-line
	// chunks.
	pl.hotChunks = min(max(int(pl.hotLines/4), 1), 1<<15)
	pl.hotChunk = rng.NewUniform(max(pl.hotLines/uint64(pl.hotChunks), 1))
	pl.codeChunks = max(min(int(p.CodeBytes/cache.LineBytes), 1<<14), 1)
	pl.codeChunkBytes = max(p.CodeBytes/uint64(pl.codeChunks), cache.LineBytes)
	pl.osChunkBytes = max(osCodeBytes/uint64(pl.codeChunks), cache.LineBytes)
	return pl
}

// root derives the stream every draw of the plan's (profile, core)
// descends from.
func (pl *Plan) root(seed *rng.Stream) *rng.Stream {
	return seed.Derive(fmt.Sprintf("%s/core%d", pl.p.Name, pl.core))
}

// Profile returns the plan's workload profile.
func (pl *Plan) Profile() *Profile { return pl.p }

// Core returns the global core ID the plan was built for.
func (pl *Plan) Core() int { return pl.core }

// NewGenerator starts a generator at the beginning of pl's trace, each of
// its random streams derived from the plan's seed under the (profile,
// core) root.
func NewGenerator(pl Plan) *Generator {
	g := &Generator{plan: pl, pc: pl.base + codeBase, osPC: pl.base + osCodeBase}
	p := pl.p
	root := pl.root(&pl.seed)
	g.mix = *root.Derive("mix")
	g.dep = *root.Derive("dep")
	g.brs = *root.Derive("branch")
	g.mem = *root.Derive("mem")
	g.code = *root.Derive("code")
	g.os = *root.Derive("os")
	g.branchPick = *rng.NewZipf(root.Derive("branch-pick"), p.StaticBranches, p.BranchZipf)
	g.coldZipf = *rng.NewZipf(root.Derive("cold"), pl.coldChunks, p.ColdZipf)
	g.hotZipf = *rng.NewZipf(root.Derive("hot"), pl.hotChunks, p.HotZipf)
	g.codeTarget = *rng.NewZipf(root.Derive("code-target"), pl.codeChunks, p.CodeZipfTheta)
	return g
}

// Next fills in the next dynamic instruction.
func (g *Generator) Next(in *Instr) {
	g.NextWarm(in)
	// Register dependency distance: geometric with the profile's ILP
	// parameter, capped so it stays inside any realistic window.
	d := g.dep.Geometric(g.plan.depGeom)
	if d > 64 {
		d = 0 // effectively independent
	}
	in.DepDist = d
}

// NextWarm fills in the next dynamic instruction for functional warming:
// every field Next fills except DepDist, which stays 0, and without
// drawing from the dependency stream (the only draw Next adds). After n
// NextWarm calls, SkipDeps(n) leaves the generator exactly where n Next
// calls would have; call it before the next Next or Clone.
func (g *Generator) NextWarm(in *Instr) {
	g.maybeToggleOS()
	*in = Instr{OS: g.inOS}

	// m is the 53-bit uniform Float64 would return as m/2^53, so each
	// m < threshold is the reference r < fraction test.
	m := g.mix.Uint64() >> 11
	switch {
	case m < g.plan.loadT:
		in.Kind = Load
		in.Addr = g.dataAddr()
	case m < g.plan.storeT:
		in.Kind = Store
		in.Addr = g.dataAddr()
	case m < g.plan.branchT:
		in.Kind = Branch
		id := g.branchPick.Next()
		in.BranchID = int32(id)
		in.Taken = g.brs.Below(g.plan.biases[id])
	case m < g.plan.fpT:
		in.Kind = FP
	default:
		in.Kind = ALU
	}

	in.PC = g.nextPC(in)
}

// SkipDeps advances the dependency stream past the n draws that n Next
// calls would have made, in O(1). It completes n NextWarm calls.
func (g *Generator) SkipDeps(n uint64) {
	g.dep.SkipGeometric(g.plan.depGeom, n)
}

// maybeToggleOS switches between user and OS execution in bursts sized so
// the long-run OS fraction matches the profile.
func (g *Generator) maybeToggleOS() {
	if g.plan.osGeom == nil { // OSFrac <= 0
		return
	}
	if g.inOS {
		g.osLeft--
		if g.osLeft <= 0 {
			g.inOS = false
		}
		return
	}
	if g.os.Below(g.plan.enterT) {
		g.inOS = true
		g.osLeft = g.os.Geometric(g.plan.osGeom)
	}
}

// dataAddr draws a data address from the stack/hot/stream/cold mixture.
// Per-core layout: [0, StackBytes) stack, [StackBytes, +HotBytes) hot,
// then the cold region.
func (g *Generator) dataAddr() uint64 {
	pl := &g.plan
	if g.inOS {
		// OS accesses in three tiers: per-CPU kernel stack (L1-resident),
		// hot kernel structures (runqueues, socket buffers), and the long
		// tail of LLC-scale kernel data.
		m := g.mem.Uint64() >> 11
		switch {
		case m < osStackT:
			return pl.base + osDataBase + g.mem.Uniform(&osStack)
		case m < osHotT:
			return pl.base + osDataBase + g.mem.Uniform(&osHotLine)*cache.LineBytes
		default:
			return pl.base + osDataBase + g.mem.Uniform(&osLine)*cache.LineBytes
		}
	}
	m := g.mem.Uint64() >> 11
	p := pl.p
	hotBase := p.StackBytes
	coldBase := p.StackBytes + p.HotBytes
	switch {
	case m < pl.stackT:
		// Primary working set: uniform within an L1-sized region.
		return pl.base + g.mem.Uniform(&pl.stackLine)*cache.LineBytes + g.mem.Uniform(&lineByte)
	case m < pl.hotT:
		// Hot region: Zipf over chunks, uniform within a chunk.
		chunk := uint64(g.hotZipf.Next())
		ln := chunk*pl.hotChunk.N() + g.mem.Uniform(&pl.hotChunk)
		if ln >= pl.hotLines {
			ln = pl.hotLines - 1
		}
		return pl.base + hotBase + ln*cache.LineBytes + g.mem.Uniform(&lineByte)
	case m < pl.streamT:
		// Streaming cursor through the cold region, advancing at word
		// granularity (a scan touches every word of a line before moving
		// on, so only one access per line misses).
		g.streamPos++
		wordsPerLine := uint64(cache.LineBytes / 8)
		ln := (g.streamPos / wordsPerLine) % pl.coldLines
		return pl.base + coldBase + ln*cache.LineBytes + (g.streamPos%wordsPerLine)*8
	default:
		// Cold region: Zipf over coarse chunks, uniform within a chunk.
		chunk := uint64(g.coldZipf.Next())
		ln := chunk*pl.coldChunk.N() + g.mem.Uniform(&pl.coldChunk)
		if ln >= pl.coldLines {
			ln = pl.coldLines - 1
		}
		return pl.base + coldBase + ln*cache.LineBytes
	}
}

// nextPC advances the program counter: sequential execution with jumps on
// taken branches (near jump or far jump per the profile), wrapping inside
// the code footprint.
func (g *Generator) nextPC(in *Instr) uint64 {
	pl := &g.plan
	pcp := &g.pc
	base := pl.base + codeBase
	limit := pl.p.CodeBytes
	chunkBytes := pl.codeChunkBytes
	if g.inOS {
		pcp = &g.osPC
		base = pl.base + osCodeBase
		limit = osCodeBytes
		chunkBytes = pl.osChunkBytes
	}
	pc := *pcp
	if in.Kind == Branch && in.Taken {
		if g.code.Below(pl.farT) {
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

// Clone returns an independent copy of the generator's cursor. The copy
// shares the plan, which is read-only.
func (g *Generator) Clone() *Generator {
	n := *g
	return &n
}
