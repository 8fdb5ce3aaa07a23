package sim

import (
	"testing"

	"ntcsim/internal/workload"
)

func TestMixedClusterValidation(t *testing.T) {
	cfg := DefaultConfig()
	if _, err := NewMixedCluster(cfg, []*workload.Profile{workload.WebSearch()}, 1e9); err == nil {
		t.Fatal("profile count mismatch should be rejected")
	}
	ps := []*workload.Profile{workload.WebSearch(), nil, workload.WebSearch(), workload.WebSearch()}
	if _, err := NewMixedCluster(cfg, ps, 1e9); err == nil {
		t.Fatal("nil profile should be rejected")
	}
}

func TestMixedClusterPerCoreWorkloads(t *testing.T) {
	cfg := DefaultConfig()
	ws, ms := workload.WebSearch(), workload.MediaStreaming()
	cl, err := NewMixedCluster(cfg, []*workload.Profile{ws, ws, ms, ms}, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	if cl.plans[0].Profile() != ws || cl.plans[3].Profile() != ms {
		t.Fatal("per-core assignment lost")
	}
	cl.FastForward(100000)
	m := cl.Measure(30000)
	// All four cores must have made progress under their own workloads.
	for i, cs := range m.PerCore {
		if cs.UserInstructions == 0 {
			t.Fatalf("core %d made no progress", i)
		}
	}
}

func TestMixedClusterSharedLLCInterference(t *testing.T) {
	// Co-running a streaming antagonist must reduce the victim's per-core
	// throughput versus running among its own kind.
	cfg := DefaultConfig()
	ws := workload.WebSearch()

	solo, err := NewCluster(cfg, ws, 2e9)
	if err != nil {
		t.Fatal(err)
	}
	solo.FastForward(400000)
	solo.Run(20000)
	soloM := solo.Measure(50000)
	soloUIPC := float64(soloM.PerCore[0].UserInstructions) / float64(soloM.PerCore[0].Cycles)

	mixed, err := NewMixedCluster(cfg, []*workload.Profile{ws, ws, workload.Bubble(), workload.Bubble()}, 2e9)
	if err != nil {
		t.Fatal(err)
	}
	mixed.FastForward(400000)
	mixed.Run(20000)
	mixedM := mixed.Measure(50000)
	mixedUIPC := float64(mixedM.PerCore[0].UserInstructions) / float64(mixedM.PerCore[0].Cycles)

	if mixedUIPC >= soloUIPC {
		t.Fatalf("bubble co-runners should slow the victim: solo %.3f vs mixed %.3f",
			soloUIPC, mixedUIPC)
	}
}
