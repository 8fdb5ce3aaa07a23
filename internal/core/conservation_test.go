package core

import (
	"fmt"
	"testing"

	"ntcsim/internal/sampling"
	"ntcsim/internal/sim"
	"ntcsim/internal/workload"
)

// TestSweepWindowsConserveTraffic checks the request-traffic identities
// of internal/sim's TestTrafficConserved on every measurement window of
// one quick sweep per workload class, launched the way SweepMany
// launches it: each point's windows after the restore, retarget and
// settle of launchPoint.
func TestSweepWindowsConserveTraffic(t *testing.T) {
	e := NewExplorer()
	freqs := []float64{0.2e9, 0.5e9, 1.0e9, 2.0e9}
	for _, p := range []*workload.Profile{workload.WebSearch(), workload.VMHighMem()} {
		t.Run(p.Name, func(t *testing.T) {
			cfg := e.SamplingFor(p)
			var all sim.Measurement
			check := func(label string, res sampling.Result) {
				for w, m := range res.Samples {
					requireConserved(t, fmt.Sprintf("%s window %d", label, w), m)
					all.Add(m)
				}
			}
			j := &sweepJob{p: p, cfg: cfg}
			if err := e.prelude(j); err != nil {
				t.Fatal(err)
			}
			for _, f := range freqs {
				res, err := sampling.Run(e.launchPoint(j.ck, f, false), cfg)
				if err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprintf("%.0f MHz", f/1e6), res)
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
