package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 8, 100} {
		n := 57
		counts := make([]atomic.Int64, n)
		err := ForEach(context.Background(), n, workers, func(_ context.Context, i int) error {
			counts[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestForEachResultIndependentOfWorkers(t *testing.T) {
	// Each job writes a pure function of its index into its own slot; the
	// assembled slice must be identical for every worker count.
	n := 33
	run := func(workers int) []int {
		out := make([]int, n)
		if err := ForEach(context.Background(), n, workers, func(_ context.Context, i int) error {
			out[i] = i * i
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := run(1)
	for _, w := range []int{2, 4, 16} {
		got := run(w)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: slot %d = %d, want %d", w, i, got[i], want[i])
			}
		}
	}
}

func TestForEachReturnsLowestIndexError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		err := ForEach(context.Background(), 20, workers, func(_ context.Context, i int) error {
			if i == 7 || i == 13 {
				return fmt.Errorf("job %d failed", i)
			}
			return nil
		})
		if err == nil {
			t.Fatalf("workers=%d: expected an error", workers)
		}
		// Job 7 always starts before job 13 (ascending claim order), so it
		// either cancels 13 or loses the race and both record; the lowest
		// index wins either way.
		if got := err.Error(); got != "job 7 failed" {
			t.Fatalf("workers=%d: err = %q, want job 7's", workers, got)
		}
	}
}

func TestForEachCancelSkipsUnstartedJobs(t *testing.T) {
	var ran atomic.Int64
	err := ForEach(context.Background(), 1000, 2, func(_ context.Context, i int) error {
		ran.Add(1)
		if i == 0 {
			return errors.New("early failure")
		}
		return nil
	})
	if err == nil || err.Error() != "early failure" {
		t.Fatalf("err = %v", err)
	}
	if r := ran.Load(); r >= 1000 {
		t.Fatalf("cancellation should skip most of the %d jobs, ran %d", 1000, r)
	}
}

func TestForEachPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	err := ForEach(ctx, 10, 4, func(context.Context, int) error {
		ran.Add(1)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Workers may observe cancellation only after claiming; a strict zero is
	// not guaranteed for the concurrent path, but the serial path checks
	// first. Allow no more than the worker count.
	if r := ran.Load(); r > 4 {
		t.Fatalf("pre-cancelled context still ran %d jobs", r)
	}
}

func TestForEachReturnsCancellationCause(t *testing.T) {
	// The documented contract: external cancellation surfaces the CAUSE
	// (context.WithCancelCause), not a bare context.Canceled — both when
	// the context is cancelled before the call and when it is cancelled
	// mid-run, on the serial and concurrent paths alike.
	cause := errors.New("operator hit ctrl-C")
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancelCause(context.Background())
		cancel(cause)
		err := ForEach(ctx, 10, workers, func(context.Context, int) error { return nil })
		if !errors.Is(err, cause) {
			t.Fatalf("workers=%d pre-cancelled: err = %v, want the cause", workers, err)
		}
	}
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancelCause(context.Background())
		err := ForEach(ctx, 1000, workers, func(_ context.Context, i int) error {
			if i == 0 {
				cancel(cause)
			}
			return nil
		})
		if !errors.Is(err, cause) {
			t.Fatalf("workers=%d mid-run: err = %v, want the cause", workers, err)
		}
	}
}

func TestForEachZeroJobsAndNilContext(t *testing.T) {
	if err := ForEach(context.Background(), 0, 4, nil); err != nil {
		t.Fatalf("n=0 must not invoke fn: %v", err)
	}
	err := ForEach(nil, 3, 2, func(ctx context.Context, i int) error { //nolint:staticcheck // nil ctx is part of the contract
		if ctx == nil {
			return errors.New("ctx not defaulted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestForEachActuallyRunsConcurrently(t *testing.T) {
	// Two jobs that each wait for the other: only a pool width >= 2 lets
	// them rendezvous.
	gate := make(chan struct{}, 2)
	err := ForEach(context.Background(), 2, 2, func(ctx context.Context, i int) error {
		gate <- struct{}{}
		select {
		case <-waitFull(gate, 2):
			return nil
		case <-time.After(5 * time.Second):
			return errors.New("jobs did not overlap")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// waitFull resolves once ch holds want buffered items.
func waitFull(ch chan struct{}, want int) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		for len(ch) < want {
			time.Sleep(time.Millisecond)
		}
		close(done)
	}()
	return done
}

// TestWorkers: a non-positive worker count selects GOMAXPROCS workers,
// and a positive one bounds the pool.
func TestWorkers(t *testing.T) {
	const n = 64
	for _, c := range []struct{ workers, max int }{
		{0, runtime.GOMAXPROCS(0)},
		{-3, runtime.GOMAXPROCS(0)},
		{7, 7},
	} {
		o := newRecordingObserver()
		ctx := WithObserver(context.Background(), o)
		if err := ForEach(ctx, n, c.workers, func(context.Context, int) error { return nil }); err != nil {
			t.Fatal(err)
		}
		o.requireEveryJobOnce(t, n, c.max)
	}
}
