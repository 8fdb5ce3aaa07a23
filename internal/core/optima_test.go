package core

import (
	"testing"

	"ntcsim/internal/platform"
	"ntcsim/internal/qos"
)

// mkPoint builds a synthetic sweep point for the Optima table tests.
func mkPoint(freqHz, effCores, effSoC, effServer float64, qosOK bool) Point {
	return Point{
		FreqHz:    freqHz,
		EffCores:  effCores,
		EffSoC:    effSoC,
		EffServer: effServer,
		QoSOK:     qosOK,
		Power:     platform.ServerPower{CoreDynW: 1, LLCW: 1, DRAMW: 1},
	}
}

func TestOptimaTable(t *testing.T) {
	cases := []struct {
		name   string
		points []Point

		wantFeasible    bool
		wantMinFeasible float64
		wantBestCores   float64 // frequency of the expected best-cores point
		wantBestServer  float64
		wantQoSBest     float64 // frequency of QoSBestServer (if feasible)
	}{
		{
			name:         "empty sweep",
			points:       nil,
			wantFeasible: false,
		},
		{
			name:            "single feasible point",
			points:          []Point{mkPoint(1e9, 3, 2, 1, true)},
			wantFeasible:    true,
			wantMinFeasible: 1e9,
			wantBestCores:   1e9,
			wantBestServer:  1e9,
			wantQoSBest:     1e9,
		},
		{
			name: "no QoS-feasible point",
			points: []Point{
				mkPoint(0.5e9, 5, 3, 2, false),
				mkPoint(1.0e9, 4, 4, 3, false),
			},
			wantFeasible:   false,
			wantBestCores:  0.5e9,
			wantBestServer: 1.0e9,
		},
		{
			name: "tie at the efficiency peak keeps the first (lowest-frequency) point",
			points: []Point{
				mkPoint(0.3e9, 7, 2, 2, true),
				mkPoint(0.7e9, 7, 2, 2, true), // exact tie on every scope
				mkPoint(2.0e9, 1, 1, 1, true),
			},
			wantFeasible:    true,
			wantMinFeasible: 0.3e9,
			wantBestCores:   0.3e9,
			wantBestServer:  0.3e9,
			wantQoSBest:     0.3e9,
		},
		{
			name: "feasibility gap: best server point infeasible, QoS-best differs",
			points: []Point{
				mkPoint(0.2e9, 9, 3, 3, false), // most efficient but misses QoS
				mkPoint(0.5e9, 6, 4, 2, true),
				mkPoint(1.0e9, 4, 2, 1, true),
			},
			wantFeasible:    true,
			wantMinFeasible: 0.5e9,
			wantBestCores:   0.2e9,
			wantBestServer:  0.2e9,
			wantQoSBest:     0.5e9,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := &Sweep{Points: tc.points}
			o := s.Optima()
			if o.HasFeasible != tc.wantFeasible {
				t.Fatalf("HasFeasible = %v, want %v", o.HasFeasible, tc.wantFeasible)
			}
			if tc.wantFeasible && o.MinFeasibleHz != tc.wantMinFeasible {
				t.Fatalf("MinFeasibleHz = %v, want %v", o.MinFeasibleHz, tc.wantMinFeasible)
			}
			if len(tc.points) == 0 {
				if o.BestCores != (Point{}) || o.QoSBestServer != (Point{}) {
					t.Fatal("empty sweep must yield zero optima")
				}
				return
			}
			if o.BestCores.FreqHz != tc.wantBestCores {
				t.Fatalf("BestCores at %v Hz, want %v", o.BestCores.FreqHz, tc.wantBestCores)
			}
			if o.BestServer.FreqHz != tc.wantBestServer {
				t.Fatalf("BestServer at %v Hz, want %v", o.BestServer.FreqHz, tc.wantBestServer)
			}
			if tc.wantFeasible && o.QoSBestServer.FreqHz != tc.wantQoSBest {
				t.Fatalf("QoSBestServer at %v Hz, want %v", o.QoSBestServer.FreqHz, tc.wantQoSBest)
			}
			if !tc.wantFeasible && o.QoSBestServer != (Point{}) {
				t.Fatal("infeasible sweep must leave QoSBestServer zero")
			}
		})
	}
}

func TestOptimaIgnoresZeroEfficiencyTies(t *testing.T) {
	// All-zero efficiencies (e.g. failed power attribution) must leave the
	// best points at their zero values rather than picking an arbitrary
	// point via a 0 > 0 comparison.
	s := &Sweep{Points: []Point{mkPoint(0.5e9, 0, 0, 0, false), mkPoint(1e9, 0, 0, 0, false)}}
	o := s.Optima()
	if o.BestCores.FreqHz != 0 || o.BestSoC.FreqHz != 0 || o.BestServer.FreqHz != 0 {
		t.Fatalf("zero-efficiency sweep picked a best point: %+v", o)
	}
}

func TestDefaultFrequenciesProperties(t *testing.T) {
	fs := DefaultFrequencies()
	if len(fs) != 11 {
		t.Fatalf("grid has %d points, want the paper's 11", len(fs))
	}
	seen := map[float64]bool{}
	for _, f := range fs {
		if f <= 0 {
			t.Fatalf("non-positive frequency %v", f)
		}
		if seen[f] {
			t.Fatalf("duplicate frequency %v", f)
		}
		seen[f] = true
	}
	// Every default frequency must be reachable by the default platform, so
	// a default sweep never fails on operating-point resolution.
	spec := platform.Default()
	for _, f := range fs {
		if _, err := spec.Tech.OperatingPointFor(f, 0); err != nil {
			t.Fatalf("default frequency %v MHz unreachable: %v", f/1e6, err)
		}
	}
	// The grid must bracket the QoS baseline so Sweep baselines make sense.
	if fs[len(fs)-1] != qos.BaselineFreqHz {
		t.Fatalf("grid top %v must equal the 2GHz baseline", fs[len(fs)-1])
	}
}
