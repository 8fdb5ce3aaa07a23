package sim

import (
	"math"
	"reflect"
	"testing"

	"ntcsim/internal/workload"
)

// runPerInstruction is the reference interleaving Cluster.Run batches:
// rescan every core before each instruction and step the one with the
// smallest (cycle, index) that is still below its target.
func runPerInstruction(cl *Cluster, cycles int64) {
	targets := make([]int64, len(cl.cores))
	for i, c := range cl.cores {
		targets[i] = c.Cycle() + cycles
	}
	for {
		best := -1
		var bestCycle int64 = math.MaxInt64
		for i, c := range cl.cores {
			if cy := c.Cycle(); cy < targets[i] && cy < bestCycle {
				best, bestCycle = i, cy
			}
		}
		if best < 0 {
			return
		}
		cl.cores[best].Step()
	}
}

// TestBatchedRunMatchesPerInstruction: the batched Run loop must step
// cores in exactly the order of the per-instruction argmin loop, so a
// mixed-profile cluster (cores drifting apart at different IPCs) yields
// identical measurements and cluster state under both.
func TestBatchedRunMatchesPerInstruction(t *testing.T) {
	profiles := []*workload.Profile{
		workload.WebSearch(), workload.DataServing(), workload.MediaStreaming(), workload.VMHighMem(),
	}
	build := func() *Cluster {
		cl, err := NewMixedCluster(DefaultConfig(), profiles, 2e9)
		if err != nil {
			t.Fatal(err)
		}
		cl.FastForward(20_000)
		return cl
	}
	batched, reference := build(), build()
	windows := []struct {
		freqHz float64
		cycles int64
	}{{2e9, 5_000}, {0.5e9, 7_001}, {1e9, 1}, {0.2e9, 12_345}}
	for i, w := range windows {
		batched.SetFrequency(w.freqHz)
		reference.SetFrequency(w.freqHz)
		got := batched.Measure(w.cycles)
		reference.ResetStats()
		runPerInstruction(reference, w.cycles)
		want := reference.measurement(w.cycles)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("window %d: batched measurement %+v, per-instruction %+v", i, got, want)
		}
		if !sameState(batched, reference) {
			t.Fatalf("window %d: cluster state differs after the window", i)
		}
	}
}
