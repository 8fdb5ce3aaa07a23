package core

import (
	"context"
	"time"

	"ntcsim/internal/obs"
	"ntcsim/internal/parallel"
	"ntcsim/internal/sampling"
	"ntcsim/internal/sim"
)

// A walk is one workload's live point and the operating points measured
// from it. The live point is a warmed cluster that only the walk runs: it
// advances by FastForwardInstr per core between rounds, and sample k of
// every point is measured on a clone of it after k advances. Nothing runs
// the live point while a round's samples clone it, so one copy serves
// every point (TurboSMARTS live points; SimFlex matched pairs).
type walk struct {
	name  string // workload label of trace spans and progress lines
	live  *sim.Cluster
	cfg   sampling.Config
	freqs []float64

	// Per point, written only by that point's sample tasks.
	res     []sampling.Result
	stopped []bool          // the point takes no further sample
	busy    []time.Duration // run time of its sample tasks so far

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
// them, sample-major. Round k first advances, on one Jobs-wide pool, each
// live point that still has a point sampling (from round 1 on), and then
// measures sample k of every such point on a second pool. The pools'
// barriers keep each live point idle while its clones are taken, and a
// point's sample k depends only on its live point, k and its frequency,
// so results are bit-identical for every Jobs setting and any grid. A
// cancelled ctx stops the walk at the next task.
func (e *Explorer) runWalks(ctx context.Context, walks []*walk) error {
	pctx := ctx
	if e.Obs != nil {
		pctx = parallel.WithObserver(ctx, obs.PoolObserver(e.Obs, "sweep"))
	}
	for _, w := range walks {
		e.Progress.Add(len(w.freqs))
	}
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
			e.sample(tasks[n].w, tasks[n].i, k)
			return nil
		})
		if err != nil {
			return err
		}
	}
}

// advance walks w's live point from sample unit k-1 to unit k.
func (e *Explorer) advance(w *walk, k int) {
	lane := e.Tracer.AcquireLane()
	defer e.Tracer.ReleaseLane(lane)
	start := time.Now() //ntclint:allow wallclock trace span timestamps only; never reaches results
	w.live.FastForward(w.cfg.FastForwardInstr)
	//ntclint:allow wallclock trace span duration only; never reaches results
	e.Tracer.Complete("sample", "fastforward", lane, start, time.Since(start),
		map[string]any{"sample": k, "point": w.name})
}

// sample measures sample k of point i: a clone of the live point, retargeted
// to the point's frequency, runs WarmupCycles and one measurement window.
// Writes are confined to slot i of w.
func (e *Explorer) sample(w *walk, i, k int) {
	label := pointLabel(w.name, w.freqs[i])
	lane := e.Tracer.AcquireLane()
	defer e.Tracer.ReleaseLane(lane)
	span := func(phase string, start time.Time) {
		//ntclint:allow wallclock trace span duration only; never reaches results
		e.Tracer.Complete("sample", phase, lane, start, time.Since(start),
			map[string]any{"sample": k, "point": label})
	}
	start := time.Now() //ntclint:allow wallclock trace/progress timestamps only; never reaches results

	cl := w.live.Clone()
	if w.reg != nil {
		cl.EnableObs()
	}
	cl.SetFrequency(w.freqs[i])
	wStart := time.Now() //ntclint:allow wallclock trace span timestamps only; never reaches results
	cl.Run(w.cfg.WarmupCycles)
	span("warmup", wStart)
	mStart := time.Now() //ntclint:allow wallclock trace span timestamps only; never reaches results
	m := cl.Measure(w.cfg.MeasureCycles)
	span("measure", mStart)
	if w.reg != nil {
		// Harvest exactly once per clone: the layer counters are
		// cumulative since EnableObs.
		cl.HarvestObs(w.reg)
		harvestWindow(w.reg, m)
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
