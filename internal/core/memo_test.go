package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"ntcsim/internal/cpu"
	"ntcsim/internal/obs"
	"ntcsim/internal/obs/timeseries"
	"ntcsim/internal/sampling"
	"ntcsim/internal/sram"
	"ntcsim/internal/workload"
)

// memoExplorer returns an explorer sharing memo, with sampling windows
// small enough that a sweep takes milliseconds.
func memoExplorer(t *testing.T, memo *SweepMemo) *Explorer {
	t.Helper()
	e, err := NewExplorer()
	if err != nil {
		t.Fatal(err)
	}
	e.WarmInstr = 20_000
	e.SettleCycles = 1_000
	e.SamplingFor = func(*workload.Profile) sampling.Config {
		return sampling.Config{WarmupCycles: 1_000, MeasureCycles: 2_000, FastForwardInstr: 2_000,
			MinSamples: 2, MaxSamples: 2, Confidence: 0.95, TargetRelErr: 0.05}
	}
	e.Memo = memo
	return e
}

var memoFreqs = []float64{0.3e9, 1.0e9, 2.0e9}

func memoSweep(t *testing.T, e *Explorer, p *workload.Profile, freqs []float64) *Sweep {
	t.Helper()
	sw, err := e.Sweep(context.Background(), p, freqs)
	if err != nil {
		t.Fatal(err)
	}
	return sw
}

func requireStats(t *testing.T, m *SweepMemo, hits, misses uint64, entries int) {
	t.Helper()
	h, ms, n := m.Stats()
	if h != hits || ms != misses || n != entries {
		t.Fatalf("memo stats (hits, misses, entries) = (%d, %d, %d), want (%d, %d, %d)", h, ms, n, hits, misses, entries)
	}
}

// TestMemoHitMatchesFreshSweep: a hit returns points deep-equal to those
// of an explorer without a memo, and they are the caller's own copy.
func TestMemoHitMatchesFreshSweep(t *testing.T) {
	memo := NewSweepMemo()
	first := memoSweep(t, memoExplorer(t, memo), workload.WebSearch(), memoFreqs)
	requireStats(t, memo, 0, 1, 1)
	hit := memoSweep(t, memoExplorer(t, memo), workload.WebSearch(), memoFreqs)
	requireStats(t, memo, 1, 1, 1)
	fresh := memoSweep(t, memoExplorer(t, nil), workload.WebSearch(), memoFreqs)
	if !reflect.DeepEqual(hit, fresh) || !reflect.DeepEqual(first, fresh) {
		t.Fatalf("memo sweep differs from a fresh one:\n  hit   %+v\n  fresh %+v", hit, fresh)
	}

	// Scribbling over a returned sweep must not reach the memo.
	hit.Points[0].UIPSChip = -1
	first.Points[1].EffServer = -1
	again := memoSweep(t, memoExplorer(t, memo), workload.WebSearch(), memoFreqs)
	requireIdentical(t, again, fresh)
	// The frequency list is keyed sorted, as Sweep evaluates it.
	reversed := memoSweep(t, memoExplorer(t, memo), workload.WebSearch(), []float64{2.0e9, 1.0e9, 0.3e9})
	requireIdentical(t, reversed, fresh)
	requireStats(t, memo, 3, 1, 1)
}

// TestMemoKeyCoversEveryInput: changing any single result-affecting
// input, including ones reached only through a pointer or held in an
// unexported field, is a miss.
func TestMemoKeyCoversEveryInput(t *testing.T) {
	memo := NewSweepMemo()
	base := memoExplorer(t, memo)
	p := workload.WebSearch()
	cfg := base.SamplingFor(p)
	hash, key, ok := base.sweepKey(p, cfg, memoFreqs)
	if !ok {
		t.Fatal("default inputs must be cacheable")
	}
	memo.store(&memoEntry{hash: hash, key: key})

	mutations := []struct {
		name   string
		mutate func(e *Explorer, p *workload.Profile, cfg *sampling.Config, freqs *[]float64)
	}{
		{"profile parameter", func(_ *Explorer, p *workload.Profile, _ *sampling.Config, _ *[]float64) { p.HotFrac *= 1.01 }},
		{"profile name", func(_ *Explorer, p *workload.Profile, _ *sampling.Config, _ *[]float64) { p.Name += "'" }},
		{"seed", func(e *Explorer, _ *workload.Profile, _ *sampling.Config, _ *[]float64) { e.Sim.Seed++ }},
		{"core ports (pointer)", func(e *Explorer, _ *workload.Profile, _ *sampling.Config, _ *[]float64) {
			e.Sim.Core.Ports = cpu.A57Ports()
		}},
		{"LLC banks", func(e *Explorer, _ *workload.Profile, _ *sampling.Config, _ *[]float64) { e.Sim.LLCBanks *= 2 }},
		{"technology (pointer)", func(e *Explorer, _ *workload.Profile, _ *sampling.Config, _ *[]float64) {
			tech := *e.Platform.Tech
			tech.Vth0 += 0.001
			spec := *e.Platform
			spec.Tech = &tech
			e.Platform = &spec
		}},
		{"LLC power model (unexported)", func(e *Explorer, _ *workload.Profile, _ *sampling.Config, _ *[]float64) {
			cfg := sram.DefaultLLCConfig()
			cfg.CellLeakW *= 2
			llc, err := sram.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			spec := *e.Platform
			spec.LLC = llc
			e.Platform = &spec
		}},
		{"cluster count", func(e *Explorer, _ *workload.Profile, _ *sampling.Config, _ *[]float64) {
			spec := *e.Platform
			spec.Clusters++
			e.Platform = &spec
		}},
		{"sampling window", func(_ *Explorer, _ *workload.Profile, cfg *sampling.Config, _ *[]float64) { cfg.MeasureCycles++ }},
		{"warmup length", func(e *Explorer, _ *workload.Profile, _ *sampling.Config, _ *[]float64) { e.WarmInstr++ }},
		{"settle cycles", func(e *Explorer, _ *workload.Profile, _ *sampling.Config, _ *[]float64) { e.SettleCycles++ }},
		{"frequency value", func(_ *Explorer, _ *workload.Profile, _ *sampling.Config, f *[]float64) {
			*f = []float64{0.3e9, 1.0e9, 2.1e9}
		}},
		{"frequency count", func(_ *Explorer, _ *workload.Profile, _ *sampling.Config, f *[]float64) {
			*f = []float64{0.3e9, 1.0e9}
		}},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			e := memoExplorer(t, memo)
			mp, mcfg, freqs := workload.WebSearch(), e.SamplingFor(p), append([]float64(nil), memoFreqs...)
			m.mutate(e, mp, &mcfg, &freqs)
			h, k, ok := e.sweepKey(mp, mcfg, freqs)
			if !ok {
				t.Fatal("mutated inputs must stay cacheable")
			}
			if memo.lookup(h, k, false) != nil {
				t.Fatalf("changing %s still hits the memo", m.name)
			}
		})
	}

	// A pointer field nested in a config: changing the pointee is a miss.
	withPorts := memoExplorer(t, memo)
	withPorts.Sim.Core.Ports = cpu.A57Ports()
	h1, k1, _ := withPorts.sweepKey(p, cfg, memoFreqs)
	memo.store(&memoEntry{hash: h1, key: k1})
	withPorts.Sim.Core.Ports.Int++
	if h, k, _ := withPorts.sweepKey(p, cfg, memoFreqs); memo.lookup(h, k, false) != nil {
		t.Fatal("editing Sim.Core.Ports in place still hits the memo")
	}

	// An in-place edit of a model the entry was keyed on cannot reach the
	// entry: the key is a private copy.
	shared := memoExplorer(t, memo)
	shared.Platform.Tech.Vth0 += 0.002
	h2, k2, _ := shared.sweepKey(p, cfg, memoFreqs)
	memo.store(&memoEntry{hash: h2, key: k2})
	shared.Platform.Tech.Vth0 += 0.002
	if h, k, _ := shared.sweepKey(p, cfg, memoFreqs); memo.lookup(h, k, false) != nil {
		t.Fatal("editing Platform.Tech in place after the store still hits the memo")
	}

	// The hash only finds candidates; the key bytes decide.
	if memo.lookup(hash, append(append([]byte(nil), key...), 0), false) != nil {
		t.Fatal("a hash match with different key bytes is a hit")
	}
	if memo.lookup(hash, key, false) == nil {
		t.Fatal("the unmodified inputs must still hit")
	}

	// A func the sampler would call cannot be compared: uncacheable.
	cfg.Phase = func(string, int, time.Time, time.Duration) {}
	if _, _, ok := base.sweepKey(p, cfg, memoFreqs); ok {
		t.Fatal("a non-nil func input must make the sweep uncacheable")
	}
}

// TestMemoHitHonoursCancelledCtx: on a cancelled ctx a sweep that would
// be a hit fails with the error a computed sweep gives, and replays no
// metrics, telemetry or progress.
func TestMemoHitHonoursCancelledCtx(t *testing.T) {
	memo := NewSweepMemo()
	first := memoExplorer(t, memo)
	first.Obs = obs.NewRegistry()
	memoSweep(t, first, workload.WebSearch(), memoFreqs)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := memoExplorer(t, nil).Sweep(ctx, workload.WebSearch(), memoFreqs); !errors.Is(err, context.Canceled) {
		t.Fatalf("computed sweep on a cancelled ctx: err = %v, want context.Canceled", err)
	}
	e := memoExplorer(t, memo)
	e.Obs = obs.NewRegistry()
	e.Telemetry = timeseries.NewSampler()
	done := 0
	e.Progress = obs.NewProgressFunc(func(int, int, string, time.Duration) { done++ })
	sw, err := e.Sweep(ctx, workload.WebSearch(), memoFreqs)
	if sw != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("memo sweep on a cancelled ctx: (%v, %v), want (nil, context.Canceled)", sw, err)
	}
	if snap := e.Obs.Snapshot(); len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
		t.Fatalf("a cancelled hit merged metrics: %+v", snap)
	}
	var csv bytes.Buffer
	if err := e.Telemetry.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	var empty bytes.Buffer
	if err := timeseries.NewSampler().WriteCSV(&empty); err != nil {
		t.Fatal(err)
	}
	if done != 0 || !bytes.Equal(csv.Bytes(), empty.Bytes()) {
		t.Fatalf("a cancelled hit replayed %d progress lines and telemetry:\n%s", done, csv.Bytes())
	}
	requireStats(t, memo, 0, 1, 1)
}

// TestMemoObsEntryServesOnlyWithMetrics: an entry computed without Obs
// is a miss for a caller with Obs, whose recomputation replaces it.
func TestMemoObsEntryServesOnlyWithMetrics(t *testing.T) {
	memo := NewSweepMemo()
	memoSweep(t, memoExplorer(t, memo), workload.WebServing(), memoFreqs)
	withObs := memoExplorer(t, memo)
	withObs.Obs = obs.NewRegistry()
	memoSweep(t, withObs, workload.WebServing(), memoFreqs)
	requireStats(t, memo, 0, 2, 1)
	memoSweep(t, memoExplorer(t, memo), workload.WebServing(), memoFreqs)
	requireStats(t, memo, 1, 2, 1)
	hitObs := memoExplorer(t, memo)
	hitObs.Obs = obs.NewRegistry()
	memoSweep(t, hitObs, workload.WebServing(), memoFreqs)
	requireStats(t, memo, 2, 2, 1)
	var a, b bytes.Buffer
	if err := withObs.Obs.Snapshot().Deterministic().WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := hitObs.Obs.Snapshot().Deterministic().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("a hit's metrics differ from the miss's")
	}
}

// TestMemoHitReplaysMetricsGolden runs the sweep pinned by
// cmd/ntcsim/testdata/golden/metrics.golden twice through one memo. The
// miss and the hit must each reproduce the golden counter-class metrics
// byte for byte, the hit's telemetry CSV must equal the miss's, and the
// hit must replay the same progress lines.
func TestMemoHitReplaysMetricsGolden(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("full instrumented sweep; skipped in -short and -race runs")
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "cmd", "ntcsim", "testdata", "golden", "metrics.golden"))
	if err != nil {
		t.Fatal(err)
	}
	memo := NewSweepMemo()
	type run struct {
		metrics, csv []byte
		labels       []string
		total        int
	}
	sweepOnce := func() run {
		e, err := NewExplorer()
		if err != nil {
			t.Fatal(err)
		}
		e.Sim.Seed = 0x5eed
		e.WarmInstr = 200_000
		e.SettleCycles = 10_000
		e.Memo = memo
		e.Obs = obs.NewRegistry()
		e.Telemetry = timeseries.NewSampler()
		var r run
		var mu sync.Mutex
		e.Progress = obs.NewProgressFunc(func(_, total int, label string, _ time.Duration) {
			mu.Lock()
			defer mu.Unlock()
			r.labels = append(r.labels, label)
			r.total = total
		})
		if _, err := e.Sweep(context.Background(), workload.WebSearch(), []float64{0.2e9, 0.5e9, 1.0e9, 2.0e9}); err != nil {
			t.Fatal(err)
		}
		var mb, cb bytes.Buffer
		if err := e.Obs.Snapshot().Deterministic().WriteJSON(&mb); err != nil {
			t.Fatal(err)
		}
		if err := e.Telemetry.WriteCSV(&cb); err != nil {
			t.Fatal(err)
		}
		r.metrics, r.csv = mb.Bytes(), cb.Bytes()
		return r
	}
	miss := sweepOnce()
	hit := sweepOnce()
	requireStats(t, memo, 1, 1, 1)
	if !bytes.Equal(miss.metrics, want) {
		t.Fatal("the miss's metrics differ from metrics.golden")
	}
	if !bytes.Equal(hit.metrics, want) {
		t.Fatalf("the hit's metrics differ from metrics.golden:\n%s", hit.metrics)
	}
	if !bytes.Equal(hit.csv, miss.csv) {
		t.Fatalf("the hit's telemetry differs from the miss's:\n%s\nvs\n%s", hit.csv, miss.csv)
	}
	// The computation reports points as they complete; the replay in
	// frequency order.
	hitLabels, missLabels := append([]string(nil), hit.labels...), append([]string(nil), miss.labels...)
	sort.Strings(hitLabels)
	sort.Strings(missLabels)
	if hit.total != miss.total || !reflect.DeepEqual(hitLabels, missLabels) {
		t.Fatalf("progress replay %v (total %d), computed %v (total %d)", hit.labels, hit.total, miss.labels, miss.total)
	}
}

// TestMemoBounded: many distinct sweeps never hold more than the cap, and
// the oldest entries go first.
func TestMemoBounded(t *testing.T) {
	const limit = 3
	memo := NewSweepMemo()
	memo.max = limit
	freqs := []float64{0.2e9, 0.4e9, 0.6e9, 0.8e9, 1.0e9, 1.2e9, 1.4e9}
	for i, f := range freqs {
		memoSweep(t, memoExplorer(t, memo), workload.MediaStreaming(), []float64{f})
		if _, _, n := memo.Stats(); n > limit || n != min(i+1, limit) {
			t.Fatalf("after %d distinct sweeps the memo holds %d entries (cap %d)", i+1, n, limit)
		}
	}
	// The newest survive, the oldest were evicted.
	memoSweep(t, memoExplorer(t, memo), workload.MediaStreaming(), freqs[len(freqs)-1:])
	memoSweep(t, memoExplorer(t, memo), workload.MediaStreaming(), freqs[:1])
	requireStats(t, memo, 1, uint64(len(freqs))+1, limit)
}

// TestMemoConcurrentLookups shares one memo among concurrent sweeps of
// two configurations (run under -race by `make race`): every result must
// equal the memo-free sweep of its configuration.
func TestMemoConcurrentLookups(t *testing.T) {
	memo := NewSweepMemo()
	profiles := []*workload.Profile{workload.WebSearch(), workload.VMLowMem()}
	want := make([]*Sweep, len(profiles))
	for i, p := range profiles {
		want[i] = memoSweep(t, memoExplorer(t, nil), p, memoFreqs)
	}
	const goroutines = 8
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		e := memoExplorer(t, memo)
		e.Obs = obs.NewRegistry()
		e.Telemetry = timeseries.NewSampler()
		e.Jobs = 2
		wg.Add(1)
		go func(g int, e *Explorer) {
			defer wg.Done()
			i := g % len(profiles)
			sw, err := e.Sweep(context.Background(), profiles[i], memoFreqs)
			if err != nil {
				errs <- err
				return
			}
			if !reflect.DeepEqual(sw.Points, want[i].Points) || sw.BaselineUIPS != want[i].BaselineUIPS {
				errs <- fmt.Errorf("goroutine %d: %s sweep differs from the memo-free one", g, profiles[i].Name)
			}
		}(g, e)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if hits, misses, n := memo.Stats(); hits+misses != goroutines || n != len(profiles) {
		t.Fatalf("memo stats (hits %d, misses %d, entries %d) after %d lookups of %d configurations",
			hits, misses, n, goroutines, len(profiles))
	}
}
