package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"ntcsim/internal/obs"
	"ntcsim/internal/obs/timeseries"
	"ntcsim/internal/workload"
)

// determinismExplorer returns a reduced-cost explorer for the parallel
// determinism tests (smaller warmup than testExplorer: these tests pay the
// warmup on every run instead of sharing the sweep cache).
func determinismExplorer(t *testing.T, jobs int) *Explorer {
	t.Helper()
	e := NewExplorer()
	e.WarmInstr = 300_000
	e.SettleCycles = 5_000
	e.Jobs = jobs
	return e
}

var determinismFreqs = []float64{0.2e9, 0.5e9, 1.0e9, 2.0e9}

// skipExhaustive gates the multi-run determinism tests: they repeat full
// warmup+sweep cycles several times, which is the point in a normal run but
// pure overhead under -short, and under -race adds minutes beyond what
// TestParallelSweepRaceSmoke already covers.
func skipExhaustive(t *testing.T) {
	t.Helper()
	if testing.Short() || raceEnabled {
		t.Skip("exhaustive determinism test; skipped in -short and -race runs")
	}
}

// TestSweepBitIdenticalAcrossWorkerCounts is the hard requirement of the
// parallel sweep engine: the serial reference (jobs=1) and every parallel
// configuration must produce byte-for-byte identical sweeps, and repeated
// runs must reproduce themselves exactly.
func TestSweepBitIdenticalAcrossWorkerCounts(t *testing.T) {
	skipExhaustive(t)
	run := func(jobs int) *Sweep {
		e := determinismExplorer(t, jobs)
		sw, err := e.Sweep(context.Background(), workload.WebSearch(), determinismFreqs)
		if err != nil {
			t.Fatal(err)
		}
		return sw
	}
	ref := run(1)
	if len(ref.Points) != len(determinismFreqs) {
		t.Fatalf("reference sweep has %d points", len(ref.Points))
	}
	for _, jobs := range []int{1, 2, 8} {
		got := run(jobs)
		for i := range ref.Points {
			// Point is a comparable struct of plain floats/bools/ints, so ==
			// is exact bit equality.
			if got.Points[i] != ref.Points[i] {
				t.Fatalf("jobs=%d: point %d differs from the serial reference:\ngot  %+v\nwant %+v",
					jobs, i, got.Points[i], ref.Points[i])
			}
		}
	}
}

// TestSweepReproducibleAcrossExplorerInstances: two independently built
// explorers (fresh warmup, fresh live point, different worker counts)
// must agree exactly on the same grid.
func TestSweepReproducibleAcrossExplorerInstances(t *testing.T) {
	skipExhaustive(t)
	a := determinismExplorer(t, 2)
	b := determinismExplorer(t, 3)
	swA, err := a.Sweep(context.Background(), workload.MediaStreaming(), determinismFreqs)
	if err != nil {
		t.Fatal(err)
	}
	swB, err := b.Sweep(context.Background(), workload.MediaStreaming(), determinismFreqs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range swA.Points {
		if swA.Points[i] != swB.Points[i] {
			t.Fatalf("independent explorers disagree at point %d", i)
		}
	}
}

// TestSweepManyMatchesIndividualSweeps: fanning workloads across workers
// must not change any workload's result, and the slice order must follow
// the profile order.
func TestSweepManyMatchesIndividualSweeps(t *testing.T) {
	skipExhaustive(t)
	profiles := []*workload.Profile{workload.WebSearch(), workload.VMLowMem()}
	many := determinismExplorer(t, 4)
	sweeps, err := many.SweepMany(context.Background(), profiles, determinismFreqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(sweeps) != len(profiles) {
		t.Fatalf("SweepMany returned %d sweeps for %d profiles", len(sweeps), len(profiles))
	}
	for i, p := range profiles {
		if sweeps[i].Workload.Name != p.Name {
			t.Fatalf("sweep %d is %s, want profile order (%s)", i, sweeps[i].Workload.Name, p.Name)
		}
		one := determinismExplorer(t, 1)
		ref, err := one.Sweep(context.Background(), p, determinismFreqs)
		if err != nil {
			t.Fatal(err)
		}
		for j := range ref.Points {
			if sweeps[i].Points[j] != ref.Points[j] {
				t.Fatalf("%s: SweepMany point %d differs from individual sweep", p.Name, j)
			}
		}
	}
}

// TestParallelSweepRaceSmoke drives the parallel engine with more workers
// than points and again with workloads fanned out, as a short-mode target
// for `go test -race`: any shared-state race in cloning, sampling or
// evaluation trips the detector here.
func TestParallelSweepRaceSmoke(t *testing.T) {
	e := determinismExplorer(t, 8)
	e.WarmInstr = 100_000
	if _, err := e.Sweep(context.Background(), workload.WebServing(), []float64{0.3e9, 0.7e9, 1.5e9, 2.0e9}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.SweepMany(context.Background(),
		[]*workload.Profile{workload.WebSearch(), workload.VMHighMem()},
		[]float64{0.5e9, 2.0e9}); err != nil {
		t.Fatal(err)
	}
}

func TestSweepErrorPropagatesFromWorkers(t *testing.T) {
	e := determinismExplorer(t, 4)
	e.WarmInstr = 100_000
	// 50GHz is unreachable for the technology: the evaluate step of that
	// point must fail and surface through the pool.
	_, err := e.Sweep(context.Background(), workload.WebSearch(), []float64{0.5e9, 2.0e9, 50e9})
	if err == nil {
		t.Fatal("unreachable frequency must fail the sweep")
	}
}

// TestSweepManyBoundedByJobs: one SweepMany call simulates at most Jobs
// clusters at once. Every prelude, walk advance, sample task and memo
// replay holds a trace lane while it runs, so no event may sit on a lane
// above Jobs. Sized for `make race`, which repeats it under the race
// detector, where its sample tasks clone each idle live point
// concurrently.
func TestSweepManyBoundedByJobs(t *testing.T) {
	const jobs = 2
	e := memoExplorer(t, nil)
	e.Jobs = jobs
	var buf bytes.Buffer
	e.Tracer = obs.NewTracer(&buf)
	profiles := []*workload.Profile{workload.WebSearch(), workload.MediaStreaming(), workload.VMLowMem()}
	freqs := []float64{0.3e9, 0.5e9, 1.0e9, 2.0e9}
	sweeps, err := e.SweepMany(context.Background(), profiles, freqs)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Tracer.Close(); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Cat  string `json:"cat"`
			Tid  int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	points := 0
	for _, ev := range trace.TraceEvents {
		if ev.Tid > jobs {
			t.Fatalf("%s span %q on lane %d: a call with Jobs=%d may use lanes 1..%d", ev.Cat, ev.Name, ev.Tid, jobs, jobs)
		}
		if ev.Cat == "point" {
			points++
		}
	}
	// One point span per (point, sample) task.
	want := 0
	for _, sw := range sweeps {
		for _, pt := range sw.Points {
			want += pt.Samples
		}
	}
	if points != want {
		t.Fatalf("trace holds %d point spans, want %d", points, want)
	}
}

// TestSweepManyPartialMemo: a call whose memo holds one of its three
// workloads answers that one from the memo, computes the other two, and
// returns what a cold explorer returns, with all three telemetry series.
func TestSweepManyPartialMemo(t *testing.T) {
	profiles := []*workload.Profile{workload.WebSearch(), workload.MediaStreaming(), workload.VMLowMem()}
	cold, err := memoExplorer(t, nil).SweepMany(context.Background(), profiles, memoFreqs)
	if err != nil {
		t.Fatal(err)
	}
	memo := NewSweepMemo()
	memoSweep(t, memoExplorer(t, memo), profiles[1], memoFreqs)
	requireStats(t, memo, 0, 1, 1)

	e := memoExplorer(t, memo)
	e.Jobs = 2
	e.Telemetry = timeseries.NewSampler()
	got, err := e.SweepMany(context.Background(), profiles, memoFreqs)
	if err != nil {
		t.Fatal(err)
	}
	requireStats(t, memo, 1, 1+2, 3) // the call adds 1 hit and 2 misses
	for i, p := range profiles {
		if got[i].Workload.Name != p.Name || !reflect.DeepEqual(got[i].Points, cold[i].Points) {
			t.Fatalf("sweep %d (%s) differs from the cold explorer's", i, p.Name)
		}
	}
	series := e.Telemetry.All()
	if len(series) != len(profiles) {
		t.Fatalf("%d telemetry series recorded, want %d", len(series), len(profiles))
	}
	for _, s := range series {
		if s.Len() != len(memoFreqs) {
			t.Fatalf("series %s holds %d samples, want %d", s.Name(), s.Len(), len(memoFreqs))
		}
	}
}

// TestSweepCancelMergesStoppedPoints: a call cancelled part-way still
// merges what it measured into Obs. A serial sweep cancelled when its
// first point stops has merged one window per traced sample task, and
// the point gauges of that point alone.
func TestSweepCancelMergesStoppedPoints(t *testing.T) {
	ctx, cancel := context.WithCancelCause(context.Background())
	cause := errors.New("SIGINT")
	e := memoExplorer(t, nil)
	e.Jobs = 1
	e.Obs = obs.NewRegistry()
	var buf bytes.Buffer
	e.Tracer = obs.NewTracer(&buf)
	var stopped []string
	e.Progress = obs.NewProgressFunc(func(_, _ int, label string, _ time.Duration) {
		stopped = append(stopped, label)
		cancel(cause)
	})
	p := workload.WebSearch()
	if _, err := e.Sweep(ctx, p, memoFreqs); !errors.Is(err, cause) {
		t.Fatalf("err = %v, want the cancellation cause", err)
	}
	if err := e.Tracer.Close(); err != nil {
		t.Fatal(err)
	}
	if want := []string{pointLabel(p.Name, memoFreqs[0])}; !slices.Equal(stopped, want) {
		t.Fatalf("points stopped before the cancellation took effect: %q, want %q", stopped, want)
	}
	var trace struct {
		TraceEvents []struct {
			Cat string `json:"cat"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	points := 0
	for _, ev := range trace.TraceEvents {
		if ev.Cat == "point" {
			points++
		}
	}
	snap := e.Obs.Snapshot()
	if got := snap.Counters["sim.windows"]; got != uint64(points) {
		t.Fatalf("merged %d windows, want one per traced sample task: %d", got, points)
	}
	key := pointKey(p, memoFreqs[0])
	gauges := 0
	for name := range snap.Gauges {
		if strings.HasPrefix(name, "point.") {
			if !strings.HasPrefix(name, key) {
				t.Fatalf("gauge %s of a point that never stopped", name)
			}
			gauges++
		}
	}
	if gauges == 0 {
		t.Fatalf("no %s* gauges for the stopped point", key)
	}
}
