package sim

import (
	"testing"

	"ntcsim/internal/rng"
	"ntcsim/internal/workload"
)

// warmedPair builds two identically warmed clusters.
func warmedPair(t *testing.T) (*Cluster, *Cluster) {
	t.Helper()
	mk := func() *Cluster {
		cl, err := NewCluster(DefaultConfig(), workload.WebSearch(), 2e9)
		if err != nil {
			t.Fatal(err)
		}
		cl.FastForward(200_000)
		cl.Run(5_000)
		return cl
	}
	return mk(), mk()
}

func TestReseedDeterministic(t *testing.T) {
	a, b := warmedPair(t)
	seed := rng.New(0xfeed)
	a.Reseed(seed.Split(3))
	b.Reseed(seed.Split(3))
	ma, mb := a.Measure(20_000), b.Measure(20_000)
	if ma.UserInstructions != mb.UserInstructions || ma.Instructions != mb.Instructions {
		t.Fatalf("same substream must replay identically: %+v vs %+v", ma.UIPC(), mb.UIPC())
	}
	if ma.LLC != mb.LLC {
		t.Fatal("LLC stats diverged under identical substreams")
	}
}

func TestReseedDecorrelatesSubstreams(t *testing.T) {
	a, b := warmedPair(t)
	seed := rng.New(0xfeed)
	a.Reseed(seed.Split(0))
	b.Reseed(seed.Split(1))
	ma, mb := a.Measure(20_000), b.Measure(20_000)
	// Different substreams must give different traces (while staying
	// statistically close — not asserted here).
	if ma.Instructions == mb.Instructions && ma.LLC == mb.LLC {
		t.Fatal("distinct substreams produced identical execution")
	}
}

func TestReseedPreservesMicroarchState(t *testing.T) {
	// Reseed swaps RNG streams only: the warmed caches and predictors must
	// survive, so post-reseed IPC stays near the warmed level (a cold
	// cluster is measurably slower over a short window).
	warm, _ := warmedPair(t)
	warm.Reseed(rng.New(1).Split(0))
	warmUIPC := warm.Measure(30_000).UIPC()

	cold, err := NewCluster(DefaultConfig(), workload.WebSearch(), 2e9)
	if err != nil {
		t.Fatal(err)
	}
	cold.Reseed(rng.New(1).Split(0))
	coldUIPC := cold.Measure(30_000).UIPC()
	if warmUIPC <= coldUIPC {
		t.Fatalf("warmed cluster (%.3f UIPC) should beat cold start (%.3f) — did Reseed drop state?",
			warmUIPC, coldUIPC)
	}
}

func TestChipFastForwardIndependentOfJobs(t *testing.T) {
	run := func(jobs int) []Measurement {
		ch, err := NewChip(DefaultConfig(), workload.MediaStreaming(), 3, 2e9)
		if err != nil {
			t.Fatal(err)
		}
		ch.SetJobs(jobs)
		ch.FastForward(150_000)
		ch.Run(5_000)
		ms, _ := ch.Measure(20_000)
		return ms
	}
	ref := run(1)
	for _, jobs := range []int{2, 8} {
		got := run(jobs)
		if len(got) != len(ref) {
			t.Fatalf("jobs=%d: %d clusters, want %d", jobs, len(got), len(ref))
		}
		for i := range ref {
			if got[i].UserInstructions != ref[i].UserInstructions ||
				got[i].Instructions != ref[i].Instructions ||
				got[i].LLC != ref[i].LLC {
				t.Fatalf("jobs=%d: cluster %d diverged from serial warmup", jobs, i)
			}
		}
	}
}

func TestRestoreClusterSharedCheckpointConcurrently(t *testing.T) {
	// One checkpoint restored from many goroutines must produce clusters
	// that evolve identically — the restore path may only read the
	// checkpoint (this is the invariant the parallel sweep engine relies
	// on; run under -race to enforce the read-only contract).
	cl, err := NewCluster(DefaultConfig(), workload.DataServing(), 2e9)
	if err != nil {
		t.Fatal(err)
	}
	cl.FastForward(150_000)
	ck := cl.Checkpoint()

	const n = 4
	results := make([]Measurement, n)
	done := make(chan int, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer func() { done <- i }()
			rcl := RestoreCluster(ck)
			rcl.SetFrequency(1e9)
			rcl.Run(2_000)
			results[i] = rcl.Measure(10_000)
		}(i)
	}
	for i := 0; i < n; i++ {
		<-done
	}
	for i := 1; i < n; i++ {
		if results[i].UserInstructions != results[0].UserInstructions ||
			results[i].LLC != results[0].LLC {
			t.Fatalf("restore %d diverged from restore 0", i)
		}
	}
}
