package core

import (
	"context"
	"testing"

	"ntcsim/internal/obs"
	"ntcsim/internal/workload"
)

// interference runs one Interference call of web-search under bubble.
func interference(t *testing.T, e *Explorer, freqs ...float64) []InterferenceReport {
	t.Helper()
	reps, err := e.Interference(context.Background(), workload.WebSearch(), workload.Bubble(), freqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != len(freqs) {
		t.Fatalf("%d reports for %d frequencies", len(reps), len(freqs))
	}
	return reps
}

func TestInterferenceBubbleHurtsVictim(t *testing.T) {
	rep := interference(t, testExplorer(t), 2e9)[0]
	if rep.Slowdown < 1.2 {
		t.Fatalf("bubble co-runner slowdown = %.2fx, expected substantial (>1.2x)", rep.Slowdown)
	}
	if rep.NormalizedMixed <= rep.NormalizedSolo {
		t.Fatal("interference must inflate the normalized tail latency")
	}
	if rep.Victim != "web-search" || rep.Aggressor != "bubble" {
		t.Fatalf("labels: %+v", rep)
	}
}

func TestInterferenceShrinksAtNearThreshold(t *testing.T) {
	// At NT frequencies each core issues memory traffic more slowly, so
	// shared-resource contention — the paper's co-scheduling blocker —
	// relaxes. This is the quantitative basis for the discussion section's
	// consolidation-at-NT direction.
	reps := interference(t, testExplorer(t), 2e9, 0.3e9)
	high, low := reps[0], reps[1]
	if high.FreqHz != 2e9 || low.FreqHz != 0.3e9 {
		t.Fatalf("reports out of the call's frequency order: %v, %v", high.FreqHz, low.FreqHz)
	}
	if low.Slowdown >= high.Slowdown {
		t.Fatalf("NT interference (%.2fx) should be milder than 2GHz (%.2fx)",
			low.Slowdown, high.Slowdown)
	}
}

func TestInterferenceCanViolateQoSNearTheBoundary(t *testing.T) {
	// A victim running right at its QoS-feasible frequency is tipped over
	// the limit by a co-runner — Sec. III-B1's argument in one number.
	// Web-search crosses QoS around 230MHz (Fig. 2); at 260MHz the solo
	// run is feasible with little margin.
	rep := interference(t, testExplorer(t), 0.26e9)[0]
	if rep.NormalizedSolo > 1 {
		t.Skipf("solo run infeasible at this frequency (%.2f), boundary moved", rep.NormalizedSolo)
	}
	if !rep.QoSViolated && rep.NormalizedMixed <= 1 {
		// Allow some sampling slack but the mixed run must at least be
		// pushed close to the boundary.
		if rep.NormalizedMixed < rep.NormalizedSolo*1.03 {
			t.Fatalf("interference had no effect near the boundary: %+v", rep)
		}
	}
}

func TestInterferenceRejectsVMVictim(t *testing.T) {
	e := testExplorer(t)
	if _, err := e.Interference(context.Background(), workload.VMLowMem(), workload.Bubble(), []float64{1e9}); err == nil {
		t.Fatal("VM victims have no tail-latency QoS; should be rejected")
	}
}

// TestInterferenceOneCallMatchesPerFrequencyCalls: one call over four
// frequencies walks the solo cluster once for all of them, and returns
// exactly the reports of four one-frequency calls, at any Jobs. Its
// progress announces and completes the solo walk's four points (2GHz is
// among them) and the four mixed points.
func TestInterferenceOneCallMatchesPerFrequencyCalls(t *testing.T) {
	freqs := []float64{0.26e9, 0.5e9, 1.0e9, 2.0e9}
	want := make([]InterferenceReport, len(freqs))
	for i, f := range freqs {
		e := warmExplorer(t)
		e.Jobs = 1
		want[i] = interference(t, e, f)[0]
	}
	for _, jobs := range []int{1, 2} {
		e := warmExplorer(t)
		e.Jobs = jobs
		e.Progress = obs.NewProgress(nil)
		for i, rep := range interference(t, e, freqs...) {
			if rep != want[i] {
				t.Fatalf("Jobs=%d, %.0f MHz: four-frequency call\n  %+v\none-frequency call\n  %+v",
					jobs, freqs[i]/1e6, rep, want[i])
			}
		}
		if done, total := e.Progress.Completed(); done != 8 || total != 8 {
			t.Fatalf("Jobs=%d: progress (%d, %d), want (8, 8)", jobs, done, total)
		}
	}
}
