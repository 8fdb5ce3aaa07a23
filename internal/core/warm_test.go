package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"ntcsim/internal/obs"
	"ntcsim/internal/workload"
)

// warmExplorer returns an explorer with a short warmup, for tests that
// pay it repeatedly.
func warmExplorer(t *testing.T) *Explorer {
	t.Helper()
	e := NewExplorer()
	e.WarmInstr = 200_000
	e.SettleCycles = 5_000
	return e
}

var warmFreqs = []float64{0.5e9, 2.0e9}

// requireIdentical asserts two sweeps are bit-identical.
func requireIdentical(t *testing.T, a, b *Sweep) {
	t.Helper()
	if a.BaselineUIPS != b.BaselineUIPS {
		t.Fatalf("baselines differ: %v vs %v", a.BaselineUIPS, b.BaselineUIPS)
	}
	if len(a.Points) != len(b.Points) {
		t.Fatalf("point counts differ: %d vs %d", len(a.Points), len(b.Points))
	}
	for i := range a.Points {
		if a.Points[i] != b.Points[i] {
			t.Fatalf("point %d differs:\n  %+v\n  %+v", i, a.Points[i], b.Points[i])
		}
	}
}

func TestSweepStopsBetweenPoints(t *testing.T) {
	ctx, cancel := context.WithCancelCause(context.Background())
	cause := errors.New("SIGINT")
	completed := 0
	e := warmExplorer(t)
	e.Jobs = 1
	e.Progress = obs.NewProgressFunc(func(int, int, string, time.Duration) {
		completed++
		cancel(cause) // arrives after point 0; takes effect at the boundary
	})
	_, err := e.Sweep(ctx, workload.WebSearch(), warmFreqs)
	if !errors.Is(err, cause) {
		t.Fatalf("cancellation cause must propagate out of the sweep, got %v", err)
	}
	if completed != 1 {
		t.Fatalf("sweep should stop at the next point boundary; ran %d points", completed)
	}
}

// TestSweepCancelledBeforeWarmup: a sweep whose ctx is already cancelled
// returns the cancellation cause and reports no progress line. Its
// cluster config cannot be built, so reaching the warm-up would fail the
// sweep with a config error instead.
func TestSweepCancelledBeforeWarmup(t *testing.T) {
	ctx, cancel := context.WithCancelCause(context.Background())
	cause := errors.New("shutdown")
	cancel(cause)
	e := warmExplorer(t)
	e.Platform.Cluster.CoresPerCluster = 0
	lines := 0
	e.Progress = obs.NewProgressFunc(func(int, int, string, time.Duration) { lines++ })
	sw, err := e.Sweep(ctx, workload.WebSearch(), warmFreqs)
	if sw != nil || !errors.Is(err, cause) {
		t.Fatalf("cancelled sweep: (%v, %v), want (nil, %v)", sw, err, cause)
	}
	if lines != 0 {
		t.Fatalf("cancelled sweep reported %d progress lines", lines)
	}
	if _, err := e.Sweep(context.Background(), workload.WebSearch(), warmFreqs); err == nil {
		t.Fatal("the config is valid, so the cancelled sweep proves nothing about warming")
	}
}

// TestRenamedProfileSweeps sweeps a renamed and an edited copy of
// web-search, neither of which the registry holds under its name. The
// in-memory checkpoint every point restores from carries the profile
// itself, so both sweep reproducibly, and the edited copy measures its
// own parameters rather than the registered web-search's.
func TestRenamedProfileSweeps(t *testing.T) {
	renamed, edited := workload.WebSearch(), workload.WebSearch()
	renamed.Name, edited.LoadFrac = "my-search", 0.10
	sweepOf := func(p *workload.Profile) *Sweep {
		t.Helper()
		s, err := warmExplorer(t).Sweep(context.Background(), p, warmFreqs)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		return s
	}
	for _, p := range []*workload.Profile{renamed, edited} {
		requireIdentical(t, sweepOf(p), sweepOf(p))
	}
	if reg, ed := sweepOf(workload.WebSearch()), sweepOf(edited); reg.Points[0] == ed.Points[0] {
		t.Fatal("the edited profile swept like the registered web-search")
	}
}
