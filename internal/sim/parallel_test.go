package sim

import (
	"testing"

	"ntcsim/internal/workload"
)

func TestChipFastForwardIndependentOfJobs(t *testing.T) {
	run := func(jobs int) []Measurement {
		ch, err := NewHeteroChip(DefaultConfig(), uniformSpecs(workload.MediaStreaming(), 3, 2e9))
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
	// One live point cloned from many goroutines must produce clusters
	// that evolve identically — Clone may only read its source, also one
	// that has run (this is the invariant the sweep's sample tasks rely
	// on; run under -race to enforce the read-only contract).
	cl, err := NewCluster(DefaultConfig(), workload.DataServing(), 2e9)
	if err != nil {
		t.Fatal(err)
	}
	cl.FastForward(150_000)
	cl.Run(2_000)

	const n = 4
	results := make([]Measurement, n)
	done := make(chan int, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer func() { done <- i }()
			rcl := cl.Clone()
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
			t.Fatalf("clone %d diverged from clone 0", i)
		}
	}
}
