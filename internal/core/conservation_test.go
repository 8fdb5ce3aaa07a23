package core

import (
	"context"
	"fmt"
	"testing"

	"ntcsim/internal/qos"
	"ntcsim/internal/sim"
	"ntcsim/internal/workload"
)

// TestSweepWindowsConserveTraffic checks the request-traffic identities
// of internal/sim's TestTrafficConserved on every measurement window of
// one quick sweep per workload class, measured the way SweepMany
// measures it: each point's windows on clones of the walked live point.
func TestSweepWindowsConserveTraffic(t *testing.T) {
	e := NewExplorer()
	freqs := []float64{0.2e9, 0.5e9, 1.0e9, 2.0e9}
	for _, p := range []*workload.Profile{workload.WebSearch(), workload.VMHighMem()} {
		t.Run(p.Name, func(t *testing.T) {
			w := newWalk(p.Name, e.SamplingFor(p), freqs)
			if err := e.prelude(&w, e.soloProfiles(p), qos.BaselineFreqHz); err != nil {
				t.Fatal(err)
			}
			if err := e.runWalks(context.Background(), []*walk{&w}); err != nil {
				t.Fatal(err)
			}
			var all sim.Measurement
			for i, f := range freqs {
				for k, m := range w.res[i].Samples {
					requireConserved(t, fmt.Sprintf("%.0f MHz window %d", f/1e6, k), m)
					all.Add(m)
				}
			}
			if all.LLCWrites == 0 || all.DRAM.Writes == 0 {
				t.Fatalf("no write traffic reached the LLC (%d) or DRAM (%d); the write identities are vacuous",
					all.LLCWrites, all.DRAM.Writes)
			}
		})
	}
}

// requireConserved checks one window: L1 misses = LLC reads, L1
// writebacks = LLC writes, LLC writebacks = DRAM writes, exactly.
func requireConserved(t *testing.T, window string, m sim.Measurement) {
	t.Helper()
	var l1Misses, l1Writebacks uint64
	for _, c := range m.PerCore {
		l1Misses += c.L1I.Misses + c.L1D.Misses
		l1Writebacks += c.L1I.Writebacks + c.L1D.Writebacks
	}
	if l1Misses == 0 {
		t.Fatalf("%s: no L1 misses; the identities are vacuous", window)
	}
	if l1Misses != m.LLCReads {
		t.Errorf("%s: L1 misses %d != LLC reads %d", window, l1Misses, m.LLCReads)
	}
	if l1Writebacks != m.LLCWrites {
		t.Errorf("%s: L1 writebacks %d != LLC writes %d", window, l1Writebacks, m.LLCWrites)
	}
	if m.LLC.Writebacks != m.DRAM.Writes {
		t.Errorf("%s: LLC writebacks %d != DRAM writes %d", window, m.LLC.Writebacks, m.DRAM.Writes)
	}
}
