package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"ntcsim/internal/core"
	"ntcsim/internal/experiments"
	"ntcsim/internal/obs"
)

// update regenerates the golden files instead of comparing against them:
//
//	go test ./cmd/ntcsim -run TestGolden -update
var update = flag.Bool("update", false, "rewrite testdata/golden files")

// goldenExplorer pins every knob that feeds the output: seed, sampling
// fidelity, warmup, settle window. The worker count is deliberately left at
// the default (all CPUs) — the sweep engine guarantees output is
// bit-identical for any worker count, so the goldens double as a
// determinism check on whatever host runs the tests.
func goldenExplorer() *core.Explorer {
	e := core.NewExplorer()
	e.Platform.Cluster.Seed = 0x5eed
	e.WarmInstr = 200_000
	e.SettleCycles = 10_000
	return e
}

// goldenParams is the experiments-API spelling of goldenExplorer: the
// same pinned knobs expressed as Params, so the registry-dispatched
// goldens and the daemon smoke test reproduce the identical bytes.
var goldenParams = experiments.Params{Seed: 0x5eed, WarmInstr: 200_000, SettleCycles: 10_000}

// runExperiment dispatches one registered experiment through the uniform
// API and returns its report text.
func runExperiment(t *testing.T, name string, p experiments.Params) string {
	t.Helper()
	var buf bytes.Buffer
	_, err := experiments.Run(context.Background(), name, p,
		experiments.Env{Out: obs.NewSyncWriter(&buf)})
	if err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestGolden snapshots the figure/table TSV reports. Any change to the
// workload generators, core model, caches, DRAM, power models, QoS logic or
// the sweep engine shows up as a diff here; regenerate intentionally with
// -update and review the diff like any other code change.
func TestGolden(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("golden regeneration is minutes of simulation; skipped in -short and -race runs")
	}
	cases := []string{"fig1", "table1", "fig2", "fig3", "fig4", "opt", "governor", "serve", "memory",
		"ablation", "variation", "darksilicon", "interference", "scaling", "workloads", "prefetch", "ports", "hetero"}
	for _, name := range cases {
		tc := name
		t.Run(tc, func(t *testing.T) {
			got := runExperiment(t, tc, goldenParams)
			path := filepath.Join("testdata", "golden", tc+".golden")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run `go test ./cmd/ntcsim -run TestGolden -update`): %v", err)
			}
			if got != string(want) {
				t.Fatalf("%s output drifted from %s.\nIf the change is intentional, regenerate with -update and review the diff.\n%s",
					tc, path, diffHint(string(want), got))
			}
		})
	}
}

// diffHint locates the first differing line so a failure is actionable
// without an external diff tool.
func diffHint(want, got string) string {
	wl, gl := splitLines(want), splitLines(got)
	n := len(wl)
	if len(gl) < n {
		n = len(gl)
	}
	for i := 0; i < n; i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("first diff at line %d:\n  golden: %q\n  got:    %q", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("line counts differ: golden %d, got %d", len(wl), len(gl))
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}
