package core

import (
	"context"
	"slices"
	"sync"
	"time"

	"ntcsim/internal/obs"
	"ntcsim/internal/parallel"
	"ntcsim/internal/sampling"
	"ntcsim/internal/sim"
	"ntcsim/internal/workload"
)

// tapeBudget is the bytes of recorded instruction stream one walk holds,
// an equal share per core, allocated at the first advance. A tape takes
// ~3.2 B per instruction, so a four-core share holds ~40k instructions:
// at quick fidelity, where a core's median sample task consumes 20k-46k,
// the median rule (see record) ends 94% of the tapes first. A
// paper-fidelity data-serving sample consumes ~2.5M instructions per
// core; there the budget ends every tape, and the rest of each sample is
// generated. The whole budget counts as live heap whether the tapes fill
// it or not, so it, not their length, sets what they add to the garbage
// collector's goal, and with it to peak RSS.
const tapeBudget = 512 << 10

// A walk is one workload's live point and the operating points measured
// from it. The live point is a warmed cluster that only the walk runs: it
// advances by FastForwardInstr per core between rounds, and sample k of
// every point is measured on a copy of it after k advances. Nothing runs
// the live point while a round's samples copy it, so one copy serves
// every point (TurboSMARTS live points; SimFlex matched pairs). After
// each advance the walk records the live point's per-core instruction
// streams once, and every sample task of the round replays them instead
// of generating them again.
type walk struct {
	name  string // workload label of trace spans and progress lines
	live  *sim.Cluster
	cfg   sampling.Config
	freqs []float64

	// Per point, written only by that point's sample tasks.
	res     []sampling.Result
	stopped []bool          // the point takes no further sample
	busy    []time.Duration // run time of its sample tasks so far
	// used[i*cores+c] is the number of instructions core c executed in
	// point i's last sample task.
	used []uint64

	// tapes[c] holds core c's stream from the live point after the last
	// advance; nil before the first advance. Written by record, read-only
	// during the sample pool.
	tapes  []workload.Tape
	sorted []uint64 // record's scratch

	reg *obs.Registry // nil without Obs
}

func newWalk(name string, cfg sampling.Config, freqs []float64) walk {
	return walk{
		name:    name,
		cfg:     cfg,
		freqs:   freqs,
		res:     make([]sampling.Result, len(freqs)),
		stopped: make([]bool, len(freqs)),
		busy:    make([]time.Duration, len(freqs)),
	}
}

// sampleTask is point i of a walk, measuring its next sample.
type sampleTask struct {
	w *walk
	i int
}

// runWalks announces every point of every walk to Progress and measures
// them, sample-major. Round k first advances and records, on one
// Jobs-wide pool, each live point that still has a point sampling (from
// round 1 on), and then measures sample k of every such point on a
// second pool. The pools' barriers keep each live point and its tapes
// idle while its copies are taken, and a point's sample k depends only
// on its live point, k and its frequency, so results are bit-identical
// for every Jobs setting and any grid. Sample tasks copy their live
// point into clusters of one free list, so a call allocates at most Jobs
// sample clusters. A cancelled ctx stops the walk at the next task.
func (e *Explorer) runWalks(ctx context.Context, walks []*walk) error {
	pctx := ctx
	if e.Obs != nil {
		pctx = parallel.WithObserver(ctx, obs.PoolObserver(e.Obs, "sweep"))
	}
	for _, w := range walks {
		e.Progress.Add(len(w.freqs))
		w.used = make([]uint64, len(w.freqs)*w.live.Cores())
	}
	var pool clusterPool
	var live []*walk
	var tasks []sampleTask
	for k := 0; ; k++ {
		if ctx.Err() != nil {
			return context.Cause(ctx)
		}
		live, tasks = live[:0], tasks[:0]
		for _, w := range walks {
			n := len(tasks)
			for i, stopped := range w.stopped {
				if !stopped {
					tasks = append(tasks, sampleTask{w, i})
				}
			}
			if len(tasks) > n {
				live = append(live, w)
			}
		}
		if len(tasks) == 0 {
			return nil
		}
		if k > 0 {
			err := parallel.ForEach(pctx, len(live), e.Jobs, func(_ context.Context, n int) error {
				e.advance(live[n], k)
				return nil
			})
			if err != nil {
				return err
			}
		}
		err := parallel.ForEach(pctx, len(tasks), e.Jobs, func(_ context.Context, n int) error {
			e.sample(&pool, tasks[n].w, tasks[n].i, k)
			return nil
		})
		if err != nil {
			return err
		}
	}
}

// clusterPool is the free list of one runWalks call's sample clusters: a
// task takes one, copies its live point into it and gives it back, so the
// pool never holds more clusters than tasks ran at once.
type clusterPool struct {
	mu   sync.Mutex
	free []*sim.Cluster
}

// get takes a cluster from the pool, or returns nil when it is empty.
func (p *clusterPool) get() *sim.Cluster {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.free)
	if n == 0 {
		return nil
	}
	cl := p.free[n-1]
	p.free = p.free[:n-1]
	return cl
}

// put returns cl to the pool.
func (p *clusterPool) put(cl *sim.Cluster) {
	p.mu.Lock()
	p.free = append(p.free, cl)
	p.mu.Unlock()
}

// advance walks w's live point from sample unit k-1 to unit k and
// records the unit's per-core streams.
func (e *Explorer) advance(w *walk, k int) {
	lane := e.Tracer.AcquireLane()
	defer e.Tracer.ReleaseLane(lane)
	span := func(phase string, start time.Time) {
		//ntclint:allow wallclock trace span duration only; never reaches results
		e.Tracer.Complete("sample", phase, lane, start, time.Since(start),
			map[string]any{"sample": k, "point": w.name})
	}
	start := time.Now() //ntclint:allow wallclock trace span timestamps only; never reaches results
	w.live.FastForward(w.cfg.FastForwardInstr)
	span("fastforward", start)
	start = time.Now() //ntclint:allow wallclock trace span timestamps only; never reaches results
	e.record(w)
	span("tape", start)
}

// record refills w's tapes from its live point. Core c's tape holds the
// median of the instructions c executed in the last sample task of each
// point still sampling, as far as its share of tapeBudget holds them: the
// replay of a longer sample generates the rest, so the length changes
// speed only, never a result.
func (e *Explorer) record(w *walk) {
	cores := w.live.Cores()
	if w.tapes == nil {
		w.tapes = make([]workload.Tape, cores)
	}
	length := e.tapeLength
	if length == nil {
		length = medianTape
	}
	for c := range w.tapes {
		used := w.sorted[:0]
		for i, stopped := range w.stopped {
			if !stopped {
				used = append(used, w.used[i*cores+c])
			}
		}
		slices.Sort(used)
		w.sorted = used
		w.live.RecordTape(c, &w.tapes[c], length(used), tapeBudget/cores)
	}
}

// medianTape is the tape length of a core whose sample tasks last
// executed the ascending used: their median.
func medianTape(used []uint64) int { return int(used[(len(used)-1)/2]) }

// sample measures sample k of point i: a copy of the live point, replaying
// its tapes and retargeted to the point's frequency, runs WarmupCycles and
// one measurement window, whose counters it harvests into w.reg when that
// is set. Writes are confined to slot i of w.
func (e *Explorer) sample(pool *clusterPool, w *walk, i, k int) {
	label := pointLabel(w.name, w.freqs[i])
	lane := e.Tracer.AcquireLane()
	defer e.Tracer.ReleaseLane(lane)
	span := func(phase string, start time.Time) {
		//ntclint:allow wallclock trace span duration only; never reaches results
		e.Tracer.Complete("sample", phase, lane, start, time.Since(start),
			map[string]any{"sample": k, "point": label})
	}
	start := time.Now() //ntclint:allow wallclock trace/progress timestamps only; never reaches results

	cl := w.live.CloneInto(pool.get())
	defer pool.put(cl)
	if w.tapes != nil {
		cl.ReplayTapes(w.tapes)
	}
	cl.SetFrequency(w.freqs[i])
	wStart := time.Now() //ntclint:allow wallclock trace span timestamps only; never reaches results
	cl.Run(w.cfg.WarmupCycles)
	span("warmup", wStart)
	mStart := time.Now() //ntclint:allow wallclock trace span timestamps only; never reaches results
	m := cl.Measure(w.cfg.MeasureCycles)
	span("measure", mStart)
	if w.reg != nil {
		cl.HarvestObs(w.reg)
		harvestWindow(w.reg, m)
	}
	cores := cl.Cores()
	for c := range cores {
		w.used[i*cores+c] = cl.Retired(c) - w.live.Retired(c)
	}
	w.stopped[i] = w.res[i].Add(m, w.cfg)

	d := time.Since(start) //ntclint:allow wallclock trace/progress duration only; never reaches results
	w.busy[i] += d
	e.Tracer.Complete("point", label, lane, start, d,
		map[string]any{"freq_hz": w.freqs[i], "sample": k})
	if w.stopped[i] {
		e.Progress.Done(label, w.busy[i])
	}
}
