package sim

import (
	"testing"

	"ntcsim/internal/workload"
)

// uniformSpecs assigns p at freqHz to each of n clusters.
func uniformSpecs(p *workload.Profile, n int, freqHz float64) []ClusterSpec {
	specs := make([]ClusterSpec, n)
	for i := range specs {
		specs[i] = ClusterSpec{Profile: p, FreqHz: freqHz}
	}
	return specs
}

func TestChipConstruction(t *testing.T) {
	ch, err := NewHeteroChip(DefaultConfig(), uniformSpecs(workload.WebSearch(), 3, 1e9))
	if err != nil {
		t.Fatal(err)
	}
	if len(ch.clusters) != 3 {
		t.Fatalf("clusters = %d", len(ch.clusters))
	}
	if _, err := NewHeteroChip(DefaultConfig(), uniformSpecs(workload.WebSearch(), 0, 1e9)); err == nil {
		t.Fatal("zero clusters should be rejected")
	}
}

func TestChipMeasurement(t *testing.T) {
	ch, err := NewHeteroChip(DefaultConfig(), uniformSpecs(workload.WebSearch(), 2, 1e9))
	if err != nil {
		t.Fatal(err)
	}
	ch.FastForward(100000)
	ch.Run(10000)
	ms, dramStats := ch.Measure(30000)
	if len(ms) != 2 {
		t.Fatalf("measurements = %d", len(ms))
	}
	for i, m := range ms {
		if m.UserInstructions == 0 {
			t.Fatalf("cluster %d made no progress", i)
		}
		if m.UIPC() <= 0 {
			t.Fatalf("cluster %d UIPC = %v", i, m.UIPC())
		}
	}
	if dramStats.Reads == 0 {
		t.Fatal("shared DRAM saw no traffic")
	}
}

func TestChipClustersContendForMemory(t *testing.T) {
	// The single-cluster methodology scales one cluster's UIPS by the
	// cluster count; this test quantifies what that ignores: per-cluster
	// throughput must drop (or at least not rise) as more clusters share
	// the four DRAM channels.
	perCluster := func(n int) float64 {
		ch, err := NewHeteroChip(DefaultConfig(), uniformSpecs(workload.MediaStreaming(), n, 2e9))
		if err != nil {
			t.Fatal(err)
		}
		ch.FastForward(300000)
		ch.Run(10000)
		ms, _ := ch.Measure(40000)
		sum := 0.0
		for _, m := range ms {
			sum += m.UIPC()
		}
		return sum / float64(n)
	}
	one := perCluster(1)
	three := perCluster(3)
	if three > one*1.02 {
		t.Fatalf("sharing DRAM should not speed clusters up: 1-cluster %.3f vs 3-cluster %.3f",
			one, three)
	}
	// The contention penalty should be modest at these request rates —
	// the property that justifies the paper's (and our) scaling shortcut.
	if three < one*0.5 {
		t.Fatalf("contention penalty implausibly large: %.3f -> %.3f", one, three)
	}
}

func TestChipCoreIDsDisjoint(t *testing.T) {
	ch, err := NewHeteroChip(DefaultConfig(), uniformSpecs(workload.WebSearch(), 2, 1e9))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, cl := range ch.clusters {
		for _, p := range cl.plans {
			if seen[p.Core()] {
				t.Fatalf("duplicate core ID %d", p.Core())
			}
			seen[p.Core()] = true
		}
	}
	if len(seen) != 8 {
		t.Fatalf("expected 8 distinct cores, got %d", len(seen))
	}
}

func TestHeteroChipPerClusterFrequencies(t *testing.T) {
	// A latency-critical cluster at 2GHz next to a batch cluster at 300MHz
	// — the consolidation configuration the paper's discussion sketches.
	specs := []ClusterSpec{
		{Profile: workload.WebSearch(), FreqHz: 2e9},
		{Profile: workload.VMHighMem(), FreqHz: 0.3e9},
	}
	ch, err := NewHeteroChip(DefaultConfig(), specs)
	if err != nil {
		t.Fatal(err)
	}
	ch.FastForward(200000)
	ch.Run(10000)
	ms, _ := ch.Measure(40000)
	if len(ms) != 2 {
		t.Fatalf("measurements = %d", len(ms))
	}
	// Both clusters progressed over the same wall-clock window.
	if ms[0].DurationNs != ms[1].DurationNs {
		t.Fatalf("clusters measured different windows: %v vs %v",
			ms[0].DurationNs, ms[1].DurationNs)
	}
	// The fast cluster executed ~6.7x the cycles of the slow one.
	ratio := float64(ms[0].Cycles) / float64(ms[1].Cycles)
	if ratio < 6 || ratio > 7.5 {
		t.Fatalf("cycle ratio = %.2f, want ~6.7 (2GHz vs 300MHz)", ratio)
	}
	for i, m := range ms {
		if m.UserInstructions == 0 {
			t.Fatalf("cluster %d idle", i)
		}
		if m.UIPC() <= 0 || m.UIPC() > 12 {
			t.Fatalf("cluster %d UIPC %v out of range", i, m.UIPC())
		}
	}
	// The slow batch cluster must have a HIGHER UIPC (the NT effect).
	if ms[1].UIPC() <= ms[0].UIPC() {
		t.Fatalf("the 300MHz cluster should have higher UIPC: %.3f vs %.3f",
			ms[1].UIPC(), ms[0].UIPC())
	}
}

func TestHeteroChipValidation(t *testing.T) {
	if _, err := NewHeteroChip(DefaultConfig(), nil); err == nil {
		t.Fatal("empty spec should be rejected")
	}
	if _, err := NewHeteroChip(DefaultConfig(), []ClusterSpec{{Profile: nil, FreqHz: 1e9}}); err == nil {
		t.Fatal("nil profile should be rejected")
	}
	if _, err := NewHeteroChip(DefaultConfig(), []ClusterSpec{{Profile: workload.WebSearch(), FreqHz: 0}}); err == nil {
		t.Fatal("zero frequency should be rejected")
	}
}

func TestHeteroChipPerClusterRetargeting(t *testing.T) {
	ch, err := NewHeteroChip(DefaultConfig(), []ClusterSpec{
		{Profile: workload.WebSearch(), FreqHz: 2e9},
		{Profile: workload.WebSearch(), FreqHz: 2e9},
	})
	if err != nil {
		t.Fatal(err)
	}
	ch.clusters[1].SetFrequency(0.5e9)
	if ch.clusters[0].freqHz != 2e9 || ch.clusters[1].freqHz != 0.5e9 {
		t.Fatal("per-cluster DVFS should not leak across clusters")
	}
}
