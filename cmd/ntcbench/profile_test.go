package main

import (
	"os"
	"strings"
	"testing"
	"time"
)

func TestParseTracesAggregatesByLayer(t *testing.T) {
	f, err := os.Open("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	p, err := parseTraces(f)
	if err != nil {
		t.Fatal(err)
	}
	ms := time.Millisecond
	if p.total != 100*ms {
		t.Fatalf("total = %v, want 100ms", p.total)
	}
	check := func(what string, got map[string]time.Duration, want map[string]time.Duration) {
		t.Helper()
		for k, w := range want {
			if got[k] != w {
				t.Errorf("%s[%s] = %v, want %v", what, k, got[k], w)
			}
		}
		for k, g := range got {
			if _, ok := want[k]; !ok {
				t.Errorf("%s has unexpected %s = %v", what, k, g)
			}
		}
	}
	// Self time goes to the leaf frame's layer only.
	check("self", p.self, map[string]time.Duration{
		"math": 30 * ms, "rng": 20 * ms, "dram": 10 * ms, "serve": 20 * ms, "runtime": 20 * ms,
	})
	// Inclusive time counts a layer once per stack, however many of its
	// frames the stack holds.
	check("cum", p.cum, map[string]time.Duration{
		"math": 30 * ms, "rng": 50 * ms, "workload": 50 * ms, "cpu": 60 * ms, "sim": 60 * ms,
		"sampling": 40 * ms, "core": 30 * ms, "dram": 10 * ms, "serve": 20 * ms,
		"parallel": 20 * ms, "obs": 10 * ms, "runtime": 20 * ms, "other": 10 * ms,
	})
	check("fnCum", p.fnCum, map[string]time.Duration{
		"rng_geometric": 30 * ms, "rng_zipf_next": 20 * ms, "cpu_step": 30 * ms,
		"cpu_fastforward": 30 * ms, "cluster_access": 10 * ms,
	})
	if got := p.pct(p.cum["cpu"]); got != 60 {
		t.Errorf("cpu cum = %v%%, want 60%%", got)
	}
}

func TestParseTracesRejectsGarbage(t *testing.T) {
	for _, in := range []string{
		"",
		"-----------+----\n      abc   runtime.main\n",
		"-----------+----\n      10ms\n",
	} {
		if _, err := parseTraces(strings.NewReader(in)); err == nil {
			t.Errorf("parseTraces(%q) succeeded", in)
		}
	}
}

func TestLayerOf(t *testing.T) {
	for frame, want := range map[string]string{
		"ntcsim/internal/cpu.(*Core).Step":                "cpu",
		"ntcsim/internal/obs/timeseries.(*Series).Record": "obs",
		"ntcsim/internal/parallel.Map[...].func1":         "parallel",
		"main.run":                 "other",
		"ntcsim/cmd/ntcsim.run":    "cmd",
		"math.Log":                 "math",
		"math/bits.LeadingZeros64": "math",
		"runtime.mallocgc":         "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall": "runtime",
		"sort.Strings": "other",
		"vendor/golang.org/x/net/http2/hpack.(*Decoder).x": "other",
	} {
		if got := layerOf(frame); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", frame, got, want)
		}
	}
}
