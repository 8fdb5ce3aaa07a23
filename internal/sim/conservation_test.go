package sim

import (
	"fmt"
	"testing"

	"ntcsim/internal/workload"
)

// TestTrafficConserved checks the request-traffic ledger of detailed
// simulation exactly, window by window: every L1 miss is one LLC read,
// every dirty L1 eviction is one LLC write, and every dirty LLC eviction
// is one DRAM write. A component that drops or double-counts a request
// breaks an identity by at least one, so there is no tolerance.
func TestTrafficConserved(t *testing.T) {
	profiles := append(workload.All(), workload.Extended()...)
	for _, p := range profiles {
		for _, freqHz := range []float64{0.5e9, 2e9} {
			t.Run(fmt.Sprintf("%s@%.0fMHz", p.Name, freqHz/1e6), func(t *testing.T) {
				cl, err := NewCluster(DefaultConfig(), p, freqHz)
				if err != nil {
					t.Fatal(err)
				}
				// Long enough that every workload's LLC evicts dirty lines.
				cl.FastForward(500_000)
				var windows Measurement
				for w := 0; w < 4; w++ {
					m := cl.Measure(10_000)
					requireConserved(t, fmt.Sprintf("window %d", w), m)
					windows.Add(m)
				}
				if windows.LLCWrites == 0 || windows.DRAM.Writes == 0 {
					t.Fatalf("no write traffic reached the LLC (%d) or DRAM (%d); the write identities are vacuous",
						windows.LLCWrites, windows.DRAM.Writes)
				}
			})
		}
	}
}

func requireConserved(t *testing.T, window string, m Measurement) {
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
