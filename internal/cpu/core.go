// Package cpu models the Cortex-A57-class cores of the paper's clusters
// (Sec. II-B, IV): 3-way out-of-order cores with a 128-entry instruction
// window and 32KB 2-way L1 instruction and data caches.
//
// The model is a simplified cycle-level out-of-order pipeline in the
// tradition of trace-driven timing simulators: instructions are dispatched
// in order at the machine width into a reorder buffer, issue out of order
// once their register producer completes (dependency distances come from
// the workload's synthetic trace), occupy issue bandwidth, and commit in
// order. Loads and instruction fetches probe real L1 tag arrays; misses
// consume MSHRs (bounding memory-level parallelism) and travel to the
// shared cluster hierarchy through the MemSystem interface, which returns
// completion times in nanoseconds on the uncore's fixed clock — this is
// what makes user-IPC rise as the core clock slows, the effect at the heart
// of the paper's near-threshold argument.
package cpu

import (
	"fmt"
	"math"
	"slices"

	"ntcsim/internal/cache"
	"ntcsim/internal/workload"
)

// MemSystem is the shared memory hierarchy below the L1s (LLC + crossbar +
// DRAM, owned by the cluster simulator). Access issues a line-granularity
// request at absolute time nowNs and returns its completion time in ns.
// Writes are posted (the core never blocks on them), but implementations
// still account their traffic and timing. Warm is the same request during
// functional warming: it updates the shared hierarchy's tag state only,
// with no timing.
type MemSystem interface {
	Access(coreID int, lineAddr uint64, write bool, nowNs float64) float64
	Warm(coreID int, lineAddr uint64, write bool)
}

// Config holds the core microarchitecture parameters.
type Config struct {
	Width         int // dispatch/issue/commit width (3-way, paper Sec. IV)
	WindowSize    int // reorder-buffer entries (128)
	L1HitCycles   int // load-to-use latency on an L1D hit
	FPLatency     int // FP operation latency
	BranchPenalty int // misprediction redirect penalty, cycles
	MSHREntries   int // outstanding L1D miss lines
	PredictorSize int // bimodal counter table entries
	// FrontendSlack is the number of cycles of decoupled fetch-queue
	// buffering: an instruction-cache miss only stalls dispatch for the
	// portion of its fill latency the fetch queue cannot hide.
	FrontendSlack int
	// StridePrefetch enables the L1D sequential-stream prefetcher — an
	// extension knob (disabled in the paper-calibrated configuration),
	// exercised by the prefetch ablation.
	StridePrefetch bool
	// Ports optionally constrains issue bandwidth per functional-unit
	// class in addition to the unified Width (nil = unified only, the
	// paper-calibrated configuration).
	Ports *PortConfig
}

// PortConfig is the per-class issue bandwidth of the execution ports.
type PortConfig struct {
	Int int // ALU + branch
	Mem int // loads + stores
	FP  int
}

// A57Ports returns an A57-like port split for the ports ablation:
// 2 integer pipes, 1 load/store issue, 1 FP/NEON pipe.
func A57Ports() *PortConfig { return &PortConfig{Int: 2, Mem: 1, FP: 1} }

// portClass maps an instruction kind to its port class index.
func portClass(k workload.Kind) int {
	switch k {
	case workload.Load, workload.Store:
		return 1
	case workload.FP:
		return 2
	default:
		return 0
	}
}

// DefaultConfig returns the paper's A57-class core configuration.
func DefaultConfig() Config {
	return Config{
		Width:         3,
		WindowSize:    128,
		L1HitCycles:   2,
		FPLatency:     4,
		BranchPenalty: 14,
		MSHREntries:   10,
		PredictorSize: 4096,
		FrontendSlack: 24,
	}
}

// Stats aggregates core activity over a measurement window.
type Stats struct {
	Cycles           uint64
	Instructions     uint64
	UserInstructions uint64
	Branches         uint64
	Mispredicts      uint64
	Prefetches       uint64

	// Instruction-weighted stall attribution (each committed instruction
	// contributes the cycles its progress was delayed by each source;
	// values are relative weights for breakdowns, not exclusive cycles).
	// Attribution is by proximate cause: a consumer waiting on a load
	// miss charges DepStall (the latency reached it through the register
	// producer), while MemStall counts only the missing loads themselves.
	FrontendStall uint64 // I-miss fills and branch redirects
	ROBStall      uint64 // window full (waiting for commit)
	DepStall      uint64 // register producer not complete
	IssueStall    uint64 // issue bandwidth / port contention
	MemStall      uint64 // demand load miss latency beyond the L1 hit time
	L1I           cache.Stats
	L1D           cache.Stats
	LLCRequests   uint64 // demand requests sent below the L1s (incl. I-side)
	MSHRFull      uint64 // load misses that found every MSHR busy and waited for a fill
}

// Add sums o into s, field by field.
func (s *Stats) Add(o Stats) {
	s.Cycles += o.Cycles
	s.Instructions += o.Instructions
	s.UserInstructions += o.UserInstructions
	s.Branches += o.Branches
	s.Mispredicts += o.Mispredicts
	s.Prefetches += o.Prefetches
	s.FrontendStall += o.FrontendStall
	s.ROBStall += o.ROBStall
	s.DepStall += o.DepStall
	s.IssueStall += o.IssueStall
	s.MemStall += o.MemStall
	s.L1I.Add(o.L1I)
	s.L1D.Add(o.L1D)
	s.LLCRequests += o.LLCRequests
	s.MSHRFull += o.MSHRFull
}

// UIPC returns user instructions per cycle — the paper's performance
// metric (Sec. IV).
func (s Stats) UIPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.UserInstructions) / float64(s.Cycles)
}

// MispredictRate returns mispredicted branches per branch.
func (s Stats) MispredictRate() float64 {
	if s.Branches == 0 {
		return 0
	}
	return float64(s.Mispredicts) / float64(s.Branches)
}

// outstanding tracks one in-flight L1D miss line.
type outstanding struct {
	line     uint64
	complete int64 // core cycle when the fill arrives
}

const issueRingSize = 1 << 13

// Core is one simulated core. Not safe for concurrent use.
type Core struct {
	cfg    Config
	id     int
	gen    *workload.Generator
	mem    MemSystem
	l1i    *cache.Cache
	l1d    *cache.Cache
	bpred  *bimodal
	freqHz float64

	cycleNs float64

	// Pipeline state.
	seq           uint64 // dynamic instruction index
	dispatchCycle int64  // cycle of the most recent dispatch
	dispatchCnt   int    // dispatches in dispatchCycle
	frontendReady int64  // earliest next dispatch (redirects, I-misses)
	commitCycle   int64  // cycle of the most recent commit
	commitCnt     int
	completeRing  []int64 // completion cycle per ROB slot (seq % window)
	commitRing    []int64 // commit cycle per ROB slot
	lastILine     uint64

	// Issue bandwidth accounting: per cycle, total slots used plus three
	// per-class counters (Int, Mem, FP), in a ring indexed by cycle
	// modulo issueRingSize. issueSlot only reaches cycles in
	// (dispatchCycle, dispatchCycle+issueRingSize/2+WindowSize], fewer
	// than issueRingSize, so each entry belongs to one cycle;
	// advanceDispatch zeroes a cycle's entry as it leaves that window.
	slotUsed [issueRingSize][4]uint8

	misses []outstanding
	pf     streamPrefetcher

	cycleAtReset int64 // commit cycle at the last ResetStats
	stats        Stats
	mshrOcc      []uint64       // the window's MSHR allocations by occupancy (MSHROccupancy)
	instr        workload.Instr // decode scratch of Step and FastForward

	// Replay (see Replay): the tape Step decodes instead of generating,
	// nil when it generates, and the position in it. The tape is shared
	// read-only with every core replaying it.
	tape   *workload.Tape
	cursor workload.TapeCursor
}

// New builds a core with its private L1s.
func New(cfg Config, id int, gen *workload.Generator, mem MemSystem, freqHz float64) (*Core, error) {
	if cfg.Width <= 0 || cfg.WindowSize <= 0 {
		return nil, fmt.Errorf("cpu: width and window must be positive")
	}
	if freqHz <= 0 {
		return nil, fmt.Errorf("cpu: frequency must be positive, got %v", freqHz)
	}
	if cfg.WindowSize&(cfg.WindowSize-1) != 0 {
		return nil, fmt.Errorf("cpu: window size %d must be a power of two", cfg.WindowSize)
	}
	if cfg.WindowSize >= issueRingSize/2 {
		return nil, fmt.Errorf("cpu: window size %d must be below half the issue ring, %d", cfg.WindowSize, issueRingSize/2)
	}
	return &Core{
		cfg:          cfg,
		id:           id,
		gen:          gen,
		mem:          mem,
		l1i:          cache.MustNew(cache.L1Config(fmt.Sprintf("core%d-l1i", id))),
		l1d:          cache.MustNew(cache.L1Config(fmt.Sprintf("core%d-l1d", id))),
		bpred:        newBimodal(cfg.PredictorSize),
		freqHz:       freqHz,
		cycleNs:      1e9 / freqHz,
		completeRing: make([]int64, cfg.WindowSize),
		commitRing:   make([]int64, cfg.WindowSize),
		lastILine:    math.MaxUint64,
		misses:       make([]outstanding, 0, cfg.MSHREntries),
		mshrOcc:      make([]uint64, cfg.MSHREntries+1),
	}, nil
}

// CloneInto makes dst an independent copy of the core — pipeline, L1s,
// predictor, workload generator, replay position and window counters —
// issuing its misses to mem. It reuses dst's storage and returns dst; a
// nil dst is allocated.
func (c *Core) CloneInto(dst *Core, mem MemSystem) *Core {
	if dst == nil {
		dst = new(Core)
	}
	gen, l1i, l1d, bpred := dst.gen, dst.l1i, dst.l1d, dst.bpred
	completeRing, commitRing, misses, mshrOcc := dst.completeRing, dst.commitRing, dst.misses, dst.mshrOcc
	*dst = *c
	dst.mem = mem
	dst.gen = c.gen.CloneInto(gen)
	dst.l1i, dst.l1d = c.l1i.CloneInto(l1i), c.l1d.CloneInto(l1d)
	dst.bpred = c.bpred.cloneInto(bpred)
	dst.completeRing = append(completeRing[:0], c.completeRing...)
	dst.commitRing = append(commitRing[:0], c.commitRing...)
	dst.misses = append(slices.Grow(misses[:0], cap(c.misses)), c.misses...)
	dst.mshrOcc = append(mshrOcc[:0], c.mshrOcc...)
	// The copy replays on from the same position of the same tape.
	dst.tape, dst.cursor = c.tape, c.cursor
	return dst
}

// Clone returns an independent copy of the core issuing its misses to
// mem: CloneInto(nil, mem).
func (c *Core) Clone(mem MemSystem) *Core { return c.CloneInto(nil, mem) }

// Record refills t with the next instructions of the core's generator,
// at most n and maxBytes of them (workload.Tape.Record); the core does
// not move. It panics on a replaying core, whose generator does not
// stand at its position.
func (c *Core) Record(t *workload.Tape, n, maxBytes int) {
	c.mustGenerate("Record")
	t.Record(c.gen, n, maxBytes)
}

// Replay attaches t, which must have been recorded from the core at its
// current position: Step then decodes t's instructions instead of
// generating them, and once past t's end takes over t's end state and
// generates on. The results are those of generating throughout. The
// core never writes t, so many cores may replay one tape at once, and a
// clone of a replaying core replays on from the same position. It
// panics on a core that is replaying already.
func (c *Core) Replay(t *workload.Tape) {
	c.mustGenerate("Replay")
	c.tape, c.cursor = t, t.Start(c.gen)
}

// mustGenerate panics when op needs the generator to stand at the core's
// position but an unfinished replay has moved the core past it.
func (c *Core) mustGenerate(op string) {
	if c.tape != nil {
		panic("cpu: " + op + " on a core replaying a tape")
	}
}

// Retired returns the number of instructions the core has executed since
// New, in either mode.
func (c *Core) Retired() uint64 { return c.seq }

// SetFrequency retargets the core clock (DVFS). Microarchitectural state
// is preserved; only the cycle-to-wall-clock mapping changes, exactly like
// a frequency transition on real hardware. Callers should run a settle
// window before measuring.
func (c *Core) SetFrequency(hz float64) {
	if hz <= 0 {
		panic("cpu: SetFrequency with non-positive frequency")
	}
	c.freqHz = hz
	c.cycleNs = 1e9 / hz
}

// NowNs returns the core's current time (of the most recent commit).
func (c *Core) NowNs() float64 { return float64(c.commitCycle) * c.cycleNs }

// Cycle returns the current core cycle.
func (c *Core) Cycle() int64 { return c.commitCycle }

// Stats returns statistics accumulated since the last ResetStats, with the
// L1 cache counters attached.
func (c *Core) Stats() Stats {
	s := c.stats
	s.Cycles = uint64(c.commitCycle - c.cycleAtReset)
	s.L1I = c.l1i.Stats()
	s.L1D = c.l1d.Stats()
	return s
}

// MSHROccupancy returns the window's load misses counted by the number of
// misses outstanding after their allocation (index 0 to MSHREntries; an
// allocation always leaves at least one in flight, so index 0 stays 0).
// The slice is live until the next ResetStats; callers must not modify it.
func (c *Core) MSHROccupancy() []uint64 { return c.mshrOcc }

// ResetStats clears measurement counters but preserves all
// microarchitectural state (caches, predictor, pipeline timing) — used at
// the boundary between SMARTS warmup and measurement.
func (c *Core) ResetStats() {
	c.stats = Stats{}
	clear(c.mshrOcc)
	c.cycleAtReset = c.commitCycle
	c.l1i.ResetStats()
	c.l1d.ResetStats()
}

func (c *Core) ns(cycle int64) float64 { return float64(cycle) * c.cycleNs }

func (c *Core) toCycles(ns float64) int64 { return int64(math.Ceil(ns / c.cycleNs)) }

// issueSlot returns the first cycle >= ready with free issue bandwidth for
// the given port class and consumes one slot in it.
func (c *Core) issueSlot(ready int64, class int) int64 {
	// Far-future issue (waiting on DRAM) never contends for bandwidth.
	if ready > c.dispatchCycle+issueRingSize/2 {
		return ready
	}
	classCap := c.cfg.Width
	if c.cfg.Ports != nil {
		switch class {
		case 1:
			classCap = c.cfg.Ports.Mem
		case 2:
			classCap = c.cfg.Ports.FP
		default:
			classCap = c.cfg.Ports.Int
		}
	}
	cy := ready
	for {
		used := &c.slotUsed[cy&(issueRingSize-1)]
		if int(used[3]) < c.cfg.Width && int(used[class]) < classCap {
			used[3]++
			used[class]++
			return cy
		}
		cy++
	}
}

// advanceDispatch moves dispatchCycle forward to cycle and zeroes the
// issue-slot counters of the cycles it passes, (dispatchCycle, cycle]:
// every later issue is after cycle, so their entries are free for the
// cycles issueRingSize later.
func (c *Core) advanceDispatch(cycle int64) {
	switch n := cycle - c.dispatchCycle; {
	case n == 1:
		c.slotUsed[cycle&(issueRingSize-1)] = [4]uint8{}
	case n >= issueRingSize:
		clear(c.slotUsed[:])
	case n > 1:
		lo, hi := (c.dispatchCycle+1)&(issueRingSize-1), cycle&(issueRingSize-1)
		if lo <= hi {
			clear(c.slotUsed[lo : hi+1])
		} else {
			clear(c.slotUsed[lo:])
			clear(c.slotUsed[:hi+1])
		}
	}
	c.dispatchCycle = cycle
}

// releaseMisses drops outstanding misses that completed at or before cycle.
func (c *Core) releaseMisses(cycle int64) {
	kept := c.misses[:0]
	for _, m := range c.misses {
		if m.complete > cycle {
			kept = append(kept, m)
		}
	}
	c.misses = kept
}

// findMiss returns the completion cycle of an in-flight miss on line, if any.
func (c *Core) findMiss(line uint64) (int64, bool) {
	for _, m := range c.misses {
		if m.line == line {
			return m.complete, true
		}
	}
	return 0, false
}

// minMissCompletion returns the earliest outstanding completion.
func (c *Core) minMissCompletion() int64 {
	min := int64(math.MaxInt64)
	for _, m := range c.misses {
		if m.complete < min {
			min = m.complete
		}
	}
	return min
}

// Step advances the core by one dynamic instruction and returns the cycle
// at which it committed.
func (c *Core) Step() int64 {
	if c.tape == nil || !c.tape.Next(&c.cursor, &c.instr) {
		c.generate()
	}
	in := &c.instr
	idx := c.seq & uint64(c.cfg.WindowSize-1)

	// Frontend: an I-line miss is filled from below the L1s.
	if c.fetchMisses(in.PC) {
		// The fetch queue hides FrontendSlack cycles of the fill; the
		// remainder stalls dispatch.
		nowNs := c.ns(maxI64(c.frontendReady, c.dispatchCycle))
		fill := c.mem.Access(c.id, in.PC, false, nowNs)
		c.stats.LLCRequests++
		c.frontendReady = maxI64(c.frontendReady,
			c.toCycles(fill)-int64(c.cfg.FrontendSlack))
	}

	// Dispatch: in order, machine width per cycle, gated by the frontend
	// and by ROB occupancy (the slot of instruction seq-window must have
	// committed).
	dispatch := c.dispatchCycle
	if c.frontendReady > dispatch {
		c.stats.FrontendStall += uint64(c.frontendReady - dispatch)
		dispatch = c.frontendReady
	}
	if c.seq >= uint64(c.cfg.WindowSize) && c.commitRing[idx] > dispatch {
		c.stats.ROBStall += uint64(c.commitRing[idx] - dispatch)
		dispatch = c.commitRing[idx]
	}
	if dispatch == c.dispatchCycle {
		if c.dispatchCnt >= c.cfg.Width {
			dispatch++
			c.dispatchCnt = 0
		}
	} else {
		c.dispatchCnt = 0
	}
	c.advanceDispatch(dispatch)
	c.dispatchCnt++

	// Ready: wait for the register producer.
	ready := dispatch + 1
	if in.DepDist > 0 && uint64(in.DepDist) <= c.seq {
		prodIdx := (c.seq - uint64(in.DepDist)) & uint64(c.cfg.WindowSize-1)
		if in.DepDist < c.cfg.WindowSize && c.completeRing[prodIdx] > ready {
			c.stats.DepStall += uint64(c.completeRing[prodIdx] - ready)
			ready = c.completeRing[prodIdx]
		}
	}

	issue := c.issueSlot(ready, portClass(in.Kind))
	if issue > ready {
		c.stats.IssueStall += uint64(issue - ready)
	}
	var complete int64

	switch in.Kind {
	case workload.ALU:
		complete = issue + 1
	case workload.FP:
		complete = issue + int64(c.cfg.FPLatency)
	case workload.Branch:
		complete = issue + 1
		c.stats.Branches++
		pred := c.bpred.predict(in.BranchID)
		c.bpred.update(in.BranchID, in.Taken)
		if pred != in.Taken {
			c.stats.Mispredicts++
			c.frontendReady = maxI64(c.frontendReady, complete+int64(c.cfg.BranchPenalty))
		}
	case workload.Load:
		complete = c.load(in, issue)
		c.prefetch(in, issue)
	case workload.Store:
		// Stores drain through the store buffer: one cycle to the core,
		// with the cache fill traffic issued in the background.
		c.store(in, issue)
		complete = issue + 1
	}

	c.completeRing[idx] = complete

	// Commit: in order, machine width per cycle.
	commit := maxI64(complete+1, c.commitCycle)
	if commit == c.commitCycle {
		if c.commitCnt >= c.cfg.Width {
			commit++
			c.commitCnt = 0
		}
	} else {
		c.commitCnt = 0
	}
	c.commitCycle = commit
	c.commitCnt++
	c.commitRing[idx] = commit
	c.retire(in)
	return commit
}

// generate fills the decode scratch from the generator, first taking
// over the end state of a tape the core has replayed to its end.
func (c *Core) generate() {
	if c.tape != nil {
		c.tape.Resume(c.gen)
		c.tape, c.cursor = nil, workload.TapeCursor{}
	}
	c.gen.Next(&c.instr)
}

// fetchMisses looks up pc's line in the L1I when fetch moves to a new
// line and reports whether it missed. A next-line prefetcher (A57-class)
// then fills the following line, hiding sequential-run misses.
func (c *Core) fetchMisses(pc uint64) bool {
	iline := pc >> cache.LineBits
	if iline == c.lastILine {
		return false
	}
	c.lastILine = iline
	miss := !c.l1i.Access(pc, false).Hit
	c.l1i.Fill(pc + cache.LineBytes)
	return miss
}

// writeBack sends v, the victim of an L1D fill, to the LLC if it is
// dirty: a posted write at nowNs in detailed mode, a tag update when
// warming.
func (c *Core) writeBack(v cache.Victim, nowNs float64, warming bool) {
	if !v.Dirty {
		return
	}
	if warming {
		c.mem.Warm(c.id, v.Addr, true)
		return
	}
	c.mem.Access(c.id, v.Addr, true, nowNs)
}

// retire counts one finished instruction, in either mode.
func (c *Core) retire(in *workload.Instr) {
	c.stats.Instructions++
	if !in.OS {
		c.stats.UserInstructions++
	}
	c.seq++
}

// load resolves a load issued at cycle issue and returns its completion.
func (c *Core) load(in *workload.Instr, issue int64) int64 {
	res := c.l1d.Access(in.Addr, false)
	line := in.Addr >> cache.LineBits
	c.releaseMisses(issue)
	// A load to a line whose fill is still in flight (the tag array fills
	// instantly in this tag-only model) merges onto the pending miss.
	if done, ok := c.findMiss(line); ok {
		return maxI64(done, issue+1)
	}
	if res.Hit {
		return issue + int64(c.cfg.L1HitCycles)
	}
	// All MSHRs busy: the load waits for the earliest fill, then retries.
	if len(c.misses) >= c.cfg.MSHREntries {
		c.stats.MSHRFull++
		issue = maxI64(issue, c.minMissCompletion())
		c.releaseMisses(issue)
	}
	fillNs := c.mem.Access(c.id, in.Addr, false, c.ns(issue))
	c.stats.LLCRequests++
	fill := maxI64(c.toCycles(fillNs), issue+int64(c.cfg.L1HitCycles))
	c.stats.MemStall += uint64(fill - issue - int64(c.cfg.L1HitCycles))
	c.misses = append(c.misses, outstanding{line: line, complete: fill})
	c.mshrOcc[len(c.misses)]++
	c.writeBack(res.Victim, c.ns(issue), false)
	return fill
}

// prefetch runs the optional stream prefetcher after a demand load.
func (c *Core) prefetch(in *workload.Instr, issue int64) {
	if !c.cfg.StridePrefetch {
		return
	}
	pa, ok := c.pf.observe(in.Addr)
	if !ok || c.l1d.Probe(pa) {
		return
	}
	// The prefetch travels the hierarchy in the background (its traffic
	// and energy are accounted); the fill installs without stalling.
	c.mem.Access(c.id, pa, false, c.ns(issue))
	c.stats.LLCRequests++
	c.stats.Prefetches++
	c.writeBack(c.l1d.Fill(pa), c.ns(issue), false)
}

// store handles the cache side of a store (write-allocate, write-back).
func (c *Core) store(in *workload.Instr, issue int64) {
	res := c.l1d.Access(in.Addr, true)
	if res.Hit {
		return
	}
	// Write-allocate: fetch the line in the background (consumes no MSHR
	// retry loop — the store buffer hides it — but generates traffic).
	c.mem.Access(c.id, in.Addr, false, c.ns(issue))
	c.stats.LLCRequests++
	c.writeBack(res.Victim, c.ns(issue), false)
}

// Run advances the core by at least the given number of cycles (measured
// at commit) and returns the number of instructions executed.
func (c *Core) Run(cycles int64) uint64 {
	target := c.commitCycle + cycles
	n := uint64(0)
	for c.commitCycle < target {
		c.Step()
		n++
	}
	return n
}

// FastForward advances the core functionally for n instructions: the
// SMARTS "functional warming" mode. It applies Step's cache rules without
// timing: L1 misses and dirty L1D victims touch the shared hierarchy's
// tags through MemSystem.Warm, and the branch predictor trains. No
// instruction's dependency distance is read, so the generator skips
// drawing them (NextWarm) and advances its dependency stream past all n
// at the end. It panics on a core with an unfinished replay (see
// Replay): the generator does not stand at the replay's position.
func (c *Core) FastForward(n uint64) {
	c.mustGenerate("FastForward")
	in := &c.instr
	for i := uint64(0); i < n; i++ {
		c.gen.NextWarm(in)
		if c.fetchMisses(in.PC) {
			c.mem.Warm(c.id, in.PC, false)
		}
		switch in.Kind {
		case workload.Load, workload.Store:
			res := c.l1d.Access(in.Addr, in.Kind == workload.Store)
			if !res.Hit {
				c.mem.Warm(c.id, in.Addr, false)
				c.writeBack(res.Victim, 0, true)
			}
		case workload.Branch:
			c.bpred.update(in.BranchID, in.Taken)
		}
		c.retire(in)
	}
	c.gen.SkipDeps(n)
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
