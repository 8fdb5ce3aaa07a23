// Package parallel is the bounded worker pool that fans independent
// simulation jobs across CPUs: the workload preludes and the
// (workload, point) pairs of a sweep call, the scenarios of a serving
// report, the clusters of a chip warmup.
//
// ForEach makes the promise the rest of the simulator depends on: the
// RESULT of a run is a pure function of the inputs, never of the
// worker count or the scheduling order. The pool only decides WHEN a job
// runs; each job writes to its own per-index slot and derives any
// randomness it needs from its index (see rng.Stream.Split), so jobs=1,
// jobs=8 and the serial loop produce bit-identical output. Errors are
// reported deterministically too: after all claimed jobs finish, the
// error of the lowest-numbered failed job is returned.
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// ForEach runs fn(ctx, i) for every i in [0, n) on at most workers
// goroutines (workers <= 0 means GOMAXPROCS, as many jobs in flight as
// the hardware runs threads). Indices are claimed in ascending order.
// The first failure cancels ctx — jobs not yet started are skipped, jobs
// already running finish — and after the pool drains the lowest-index
// error is returned. A nil ctx is treated as
// context.Background(); if ctx is already cancelled, no job runs and the
// cause is returned.
//
// fn must confine its writes to per-index state (e.g. slot i of a
// caller-owned slice): that is what makes the output independent of the
// worker count.
func ForEach(ctx context.Context, n, workers int, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	// Observation is opt-in via WithObserver: resolved once per run, so
	// the common unobserved path pays a single context lookup, and each
	// job pays clock reads only when someone is listening.
	obs := observerFrom(ctx)
	run := func(ctx context.Context, i, _ int) error { return fn(ctx, i) }
	if obs != nil {
		poolStart := time.Now() //ntclint:allow wallclock observer-gated queue-wait baseline; timing-class by charter
		run = func(ctx context.Context, i, worker int) error {
			jobStart := time.Now() //ntclint:allow wallclock observer-gated job timing; timing-class by charter
			err := fn(ctx, i)
			busy := time.Since(jobStart) //ntclint:allow wallclock observer-gated job timing; timing-class by charter
			obs.Job(i, worker, jobStart.Sub(poolStart), busy)
			return err
		}
	}
	if workers == 1 {
		// Serial fast path: same claim order, no goroutines.
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				return context.Cause(ctx)
			}
			if err := run(ctx, i, 0); err != nil {
				return err
			}
		}
		return nil
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || ctx.Err() != nil {
					return
				}
				if err := run(ctx, i, worker); err != nil {
					errs[i] = err
					cancel()
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	// Reaching here with a cancelled ctx means the parent was cancelled
	// (our own cancel only fires alongside a recorded error). Return the
	// cancellation CAUSE, as documented: callers that cancel with
	// context.WithCancelCause see their cause, not a bare Canceled.
	if ctx.Err() != nil {
		return context.Cause(ctx)
	}
	return nil
}
