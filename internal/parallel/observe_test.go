package parallel

import (
	"context"
	"sync"
	"testing"
	"time"
)

// recordingObserver collects Job notifications for assertions.
type recordingObserver struct {
	mu   sync.Mutex
	jobs map[int][]int // job index -> the worker of each report
}

func newRecordingObserver() *recordingObserver {
	return &recordingObserver{jobs: make(map[int][]int)}
}

func (o *recordingObserver) Job(i, worker int, queueWait, busy time.Duration) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.jobs[i] = append(o.jobs[i], worker)
}

// requireEveryJobOnce asserts each of the n jobs was reported exactly
// once, by a worker index in [0, workers).
func (o *recordingObserver) requireEveryJobOnce(t *testing.T, n, workers int) {
	t.Helper()
	if len(o.jobs) != n {
		t.Fatalf("observer saw %d jobs, want %d", len(o.jobs), n)
	}
	for i := 0; i < n; i++ {
		ws := o.jobs[i]
		if len(ws) != 1 {
			t.Fatalf("job %d reported %d times, want once", i, len(ws))
		}
		if w := ws[0]; w < 0 || w >= workers {
			t.Fatalf("job %d ran on worker %d, want [0,%d)", i, w, workers)
		}
	}
}

// TestObserverSeesEveryJob: with an observer installed, every completed
// job must be reported exactly once with a worker index inside the pool.
func TestObserverSeesEveryJob(t *testing.T) {
	const n, workers = 32, 4
	o := newRecordingObserver()
	ctx := WithObserver(context.Background(), o)
	if err := ForEach(ctx, n, workers, func(context.Context, int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	o.requireEveryJobOnce(t, n, workers)
}

// TestObserverSerialPath: the workers==1 fast path must also observe,
// attributing everything to worker 0.
func TestObserverSerialPath(t *testing.T) {
	o := newRecordingObserver()
	ctx := WithObserver(context.Background(), o)
	if err := ForEach(ctx, 5, 1, func(context.Context, int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	o.requireEveryJobOnce(t, 5, 1)
}

// TestWithObserverNil: a nil observer installs nothing.
func TestWithObserverNil(t *testing.T) {
	ctx := context.Background()
	if got := WithObserver(ctx, nil); got != ctx {
		t.Fatal("WithObserver(nil) must return the context unchanged")
	}
}
