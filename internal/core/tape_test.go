package core

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"ntcsim/internal/sampling"
	"ntcsim/internal/workload"
)

// TestTapeLengthChangesNoResult forces every sample task's tapes off, to
// one instruction, to the default median, and past the longest consumer
// of the previous round, at Jobs 1 and 2. A four-frequency sweep and a
// two-frequency Interference call must give the same points and reports
// under all of them: the tape's length changes speed only. Sample tasks of one round share each tape read-only, so `make
// race` runs this test ten times.
func TestTapeLengthChangesNoResult(t *testing.T) {
	lengths := []struct {
		name string
		rule func(t *testing.T) func(used []uint64) int
	}{
		{"off", func(*testing.T) func([]uint64) int { return func([]uint64) int { return 0 } }},
		{"one", func(*testing.T) func([]uint64) int { return func([]uint64) int { return 1 } }},
		{"median", func(*testing.T) func([]uint64) int { return nil }},
		{"past-longest", func(t *testing.T) func([]uint64) int {
			return func(used []uint64) int {
				n := 2*int(used[len(used)-1]) + 1
				// The budget of a four-core walk must not cut the tape.
				if n*workload.TapeMaxBytes > tapeBudget/4 {
					t.Errorf("a tape of %d instructions exceeds the budget; shorten the test's windows", n)
				}
				return n
			}
		}},
	}
	type result struct {
		points  []Point
		reports []InterferenceReport
	}
	run := func(t *testing.T, jobs int, length func([]uint64) int) result {
		e := NewExplorer()
		e.WarmInstr = 20_000
		e.SettleCycles = 1_000
		e.Jobs = jobs
		// Three rounds, so two of them replay, and a loose target, so some
		// points stop before others and leave the median.
		e.SamplingFor = func(*workload.Profile) sampling.Config {
			return sampling.Config{WarmupCycles: 1_000, MeasureCycles: 3_000, FastForwardInstr: 3_000,
				MinSamples: 2, MaxSamples: 3, TargetRelErr: 0.05}
		}
		e.tapeLength = length
		sw, err := e.Sweep(context.Background(), workload.WebSearch(), []float64{0.2e9, 0.5e9, 1.0e9, 2.0e9})
		if err != nil {
			t.Fatal(err)
		}
		r := result{points: sw.Points}
		r.reports, err = e.Interference(context.Background(), workload.WebSearch(), workload.DataServing(),
			[]float64{0.3e9, 1.0e9})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	want := run(t, 1, lengths[0].rule(t))
	stops := map[int]bool{}
	for _, pt := range want.points {
		stops[pt.Samples] = true
	}
	if !stops[3] || len(stops) < 2 {
		t.Fatalf("sample counts %v: some points must stop before others, and some replay two rounds", stops)
	}
	for _, l := range lengths {
		for _, jobs := range []int{1, 2} {
			if l.name == "off" && jobs == 1 || raceEnabled && jobs == 1 {
				continue // the reference, or a run with no concurrency to check
			}
			t.Run(fmt.Sprintf("%s/jobs%d", l.name, jobs), func(t *testing.T) {
				if got := run(t, jobs, l.rule(t)); !reflect.DeepEqual(got, want) {
					t.Fatalf("tapes %s at Jobs %d changed the results:\n%+v\nwant\n%+v", l.name, jobs, got, want)
				}
			})
		}
	}
}
