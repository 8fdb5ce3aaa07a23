package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestJudgeBoundsWithAbsoluteFloor(t *testing.T) {
	setup, _ := declared(endToEnd, "setup_s")
	wall, _ := declared(endToEnd, "wall_s")
	ref := []float64{0.0025, 0.0025, 0.0025}
	for _, tc := range []struct {
		m    metric
		b    []float64
		want string
	}{
		// +60% on 2.5 ms is 1.5 ms: inside the 2 ms floor.
		{setup, []float64{0.004, 0.004, 0.004}, "ok"},
		// +100% is 2.5 ms: beyond the floor.
		{setup, []float64{0.005, 0.005, 0.005}, "regression"},
		// Without a floor the relative bound alone applies.
		{wall, []float64{0.004, 0.004, 0.004}, "regression"},
		{wall, []float64{0.0027, 0.0027, 0.0027}, "ok"},
	} {
		if got := judge(tc.m, 0.25, ref, tc.b); got != tc.want {
			t.Errorf("%s %v against %v = %q, want %q", tc.m.name, tc.b, ref, got, tc.want)
		}
	}
}

func TestJudgeSpreadAndGain(t *testing.T) {
	wall, _ := declared(endToEnd, "wall_s")
	hit := metric{name: "hit_ratio", better: "higher"}
	ten := func(base, step float64) []float64 {
		xs := make([]float64, 10)
		for i := range xs {
			xs[i] = base + step*float64(i%5)
		}
		return xs
	}
	for _, tc := range []struct {
		name string
		m    metric
		a, b []float64
		want string
	}{
		{"noise inside the bound", wall, ten(10, 0.1), ten(10.05, 0.1), "ok"},
		{"spread wider than the bound", wall, ten(8, 1), ten(8.5, 1), "unresolved"},
		{"wide but every candidate run is faster", wall, ten(20, 1), ten(8, 1), "gain"},
		{"wide but every candidate run is slower", wall, ten(8, 1), ten(20, 1), "regression"},
		{"ten of ten pairs won by more than the spread", wall, ten(10, 0.1), ten(9, 0.1), "gain"},
		{"higher is better", hit, ten(0.5, 0.01), ten(0.6, 0.01), "gain"},
		{"higher is better, worse", hit, ten(0.6, 0.01), ten(0.5, 0.01), "regression"},
	} {
		if got := judge(tc.m, 0.1, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: got %q, want %q", tc.name, got, tc.want)
		}
	}

	// Eight of ten pairs won is short of nine in ten: no gain claimed.
	a := ten(10, 0.1)
	b := ten(9, 0.1)
	b[0], b[1] = 20, 20
	if got := judge(wall, 0.5, a, b); got != "ok" {
		t.Errorf("8 of 10 pairs won: got %q, want ok", got)
	}
}

func TestCompareFlagsCounterMismatch(t *testing.T) {
	rec := func(dram, wall float64) record {
		return record{
			Workload: "fig4-vm", Seed: 7, Correct: true, Attempted: 1,
			Metrics: map[string]value{"wall_s": {wall, "s"}},
			Layers:  map[string]value{"dram.reads": {dram, "count"}, "core.warm_s": {wall, "s"}},
		}
	}
	var out bytes.Buffer
	if !compare(&out, map[string]float64{"wall_s": 0.1}, []record{rec(100, 1)}, []record{rec(100, 1.01)}) {
		t.Fatalf("equal counters, wall within bound: compare failed:\n%s", out.String())
	}
	out.Reset()
	if compare(&out, map[string]float64{"wall_s": 0.1}, []record{rec(100, 1)}, []record{rec(101, 1)}) {
		t.Fatalf("differing dram.reads passed:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "dram.reads") {
		t.Errorf("mismatch report does not name the counter:\n%s", out.String())
	}
}
