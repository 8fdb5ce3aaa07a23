package experiments

import (
	"testing"

	"ntcsim/internal/cache"
	"ntcsim/internal/dram"
)

func TestBuildTracePatterns(t *testing.T) {
	cfg := dram.DefaultConfig()
	for _, pattern := range []string{"stream", "random", "zipf", "pingpong"} {
		reqs, err := buildTrace(pattern, cfg, 1000, 2.0, 1)
		if err != nil {
			t.Fatalf("%s: %v", pattern, err)
		}
		if len(reqs) != 1000 {
			t.Fatalf("%s: %d requests", pattern, len(reqs))
		}
		prev := -1.0
		for i, r := range reqs {
			if r.ArriveNs <= prev {
				t.Fatalf("%s: arrivals not strictly increasing at %d", pattern, i)
			}
			prev = r.ArriveNs
			if r.Addr >= cfg.TotalBytes() {
				t.Fatalf("%s: address %x beyond capacity", pattern, r.Addr)
			}
		}
	}
}

func TestBuildTraceUnknownPattern(t *testing.T) {
	if _, err := buildTrace("bogus", dram.DefaultConfig(), 10, 1, 1); err == nil {
		t.Fatal("unknown pattern should error")
	}
}

func TestStreamTraceIsSequential(t *testing.T) {
	cfg := dram.DefaultConfig()
	reqs, err := buildTrace("stream", cfg, 100, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(reqs); i++ {
		if reqs[i].Addr != reqs[i-1].Addr+cache.LineBytes {
			t.Fatal("stream pattern must advance one line per request")
		}
	}
}

func TestPingPongAlternatesRows(t *testing.T) {
	cfg := dram.DefaultConfig()
	reqs, err := buildTrace("pingpong", cfg, 100, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Replay through a backend in arrival order: it must see a ~zero
	// row-hit rate (the pattern exists to defeat the open page).
	sys, err := dram.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reqs {
		sys.Submit(r.Addr, false, r.ArriveNs)
	}
	if hr := sys.Stats().RowHitRate(); hr > 0.1 {
		t.Fatalf("ping-pong row-hit rate = %.2f, want ~0", hr)
	}
}

func TestTraceDeterminism(t *testing.T) {
	cfg := dram.DefaultConfig()
	a, _ := buildTrace("zipf", cfg, 500, 2, 42)
	b, _ := buildTrace("zipf", cfg, 500, 2, 42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("trace generation not deterministic")
		}
	}
}
