package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"ntcsim/internal/obs"
	"ntcsim/internal/workload"
)

// TestOutWriterNoInterleave is the regression test for the ordered-output
// bugfix: drivers that print from concurrent goroutines all go through
// the package writer, which must serialize whole writes so lines never
// interleave mid-line.
func TestOutWriterNoInterleave(t *testing.T) {
	var buf bytes.Buffer
	old := out
	out = obs.NewSyncWriter(&buf)
	defer func() { out = old }()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				fmt.Fprintf(out, "worker%d line%04d %s\n", g, i, strings.Repeat("x", 40))
			}
		}(g)
	}
	wg.Wait()

	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 8*200 {
		t.Fatalf("got %d lines, want %d", len(lines), 8*200)
	}
	for _, l := range lines {
		var g, i int
		var tail string
		if _, err := fmt.Sscanf(l, "worker%d line%d %s", &g, &i, &tail); err != nil || len(tail) != 40 {
			t.Fatalf("interleaved or corrupt line: %q", l)
		}
	}
}

// TestRunObservabilityFlags drives run() end to end with -metrics, -trace
// and -pprof on a cheap command, verifying the flag plumbing: both files
// must come out as valid JSON in their documented shapes, and the pprof
// endpoint must serve expvar with the published registry.
func TestRunObservabilityFlags(t *testing.T) {
	dir := t.TempDir()
	mPath := filepath.Join(dir, "m.json")
	tPath := filepath.Join(dir, "t.json")

	var buf bytes.Buffer
	old := out
	out = obs.NewSyncWriter(&buf)
	defer func() { out = old }()

	err := run([]string{"-metrics", mPath, "-trace", tPath, "-progress", "variation"})
	if err != nil {
		t.Fatal(err)
	}

	mb, err := os.ReadFile(mPath)
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(mb, &snap); err != nil {
		t.Fatalf("metrics file is not a valid snapshot: %v", err)
	}
	if snap.Counters == nil || snap.Timings == nil {
		t.Fatalf("metrics snapshot missing sections: %s", mb)
	}

	tb, err := os.ReadFile(tPath)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Cat  string `json:"cat"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(tb, &trace); err != nil {
		t.Fatalf("trace file is not valid Chrome-trace JSON: %v", err)
	}
	found := false
	for _, ev := range trace.TraceEvents {
		if ev.Cat == "cmd" && ev.Name == "variation" {
			found = true
		}
	}
	if !found {
		t.Fatalf("trace missing the top-level command span: %s", tb)
	}
}

// TestPprofEndpointServes: the -pprof listener must serve /debug/vars
// including the published registry snapshot.
func TestPprofEndpointServes(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("test.alive").Add(1)
	addr, err := startPprof("127.0.0.1:0", r, nil)
	if err != nil {
		t.Skipf("cannot listen in this environment: %v", err)
	}
	resp, err := http.Get("http://" + addr + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal(body, &vars); err != nil {
		t.Fatalf("/debug/vars is not valid JSON: %v", err)
	}
	if _, ok := vars["ntcsim"]; !ok {
		t.Fatal("/debug/vars missing the ntcsim registry")
	}
}

// obsSweepSnapshot runs one instrumented sweep and returns the
// deterministic (counter-class) portion of the harvested snapshot as
// bytes, plus the full snapshot for structural checks.
func obsSweepSnapshot(t *testing.T, jobs int) ([]byte, obs.Snapshot) {
	t.Helper()
	e := goldenExplorer()
	e.Jobs = jobs
	e.Obs = obs.NewRegistry()
	if _, err := e.Sweep(context.Background(), workload.WebSearch(), []float64{0.2e9, 0.5e9, 1.0e9, 2.0e9}); err != nil {
		t.Fatal(err)
	}
	snap := e.Obs.Snapshot()
	var buf bytes.Buffer
	if err := snap.Deterministic().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), snap
}

// TestMetricsDeterministicAcrossJobs is the metrics half of the sweep
// engine's determinism contract: the counter-class sections of the
// snapshot must be byte-identical for jobs=1 and jobs=8, while the
// timing section is expected to exist (and differ).
func TestMetricsDeterministicAcrossJobs(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("full instrumented sweeps; skipped in -short and -race runs")
	}
	serial, snap1 := obsSweepSnapshot(t, 1)
	parallel8, snap8 := obsSweepSnapshot(t, 8)
	if !bytes.Equal(serial, parallel8) {
		t.Fatalf("counter-class metrics differ between jobs=1 and jobs=8:\n%s\nvs\n%s", serial, parallel8)
	}
	if len(snap1.Timings) == 0 || len(snap8.Timings) == 0 {
		t.Fatal("timing-class section missing (pool observer not wired?)")
	}
}

// TestMetricsGolden pins the deterministic metrics snapshot of a fixed
// sweep as a golden file: any change to the harvested key set or to the
// simulation itself shows up as a diff. Regenerate with -update.
func TestMetricsGolden(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("full instrumented sweep; skipped in -short and -race runs")
	}
	got, _ := obsSweepSnapshot(t, 0)
	path := filepath.Join("testdata", "golden", "metrics.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run `go test ./cmd/ntcsim -run TestMetricsGolden -update`): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("metrics snapshot drifted from %s.\nIf the change is intentional, regenerate with -update and review the diff.\n%s",
			path, diffHint(string(want), string(got)))
	}
}

// TestMetricsGoldenBankSums: the per-bank DRAM counters of the pinned
// metrics snapshot cover the measured windows, like every other counter,
// so each command summed over every bank equals its aggregate. It checks
// the golden file, which TestMetricsGolden holds equal to a live sweep's
// snapshot, and so runs in -short mode too.
func TestMetricsGoldenBankSums(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("testdata", "golden", "metrics.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(blob, &snap); err != nil {
		t.Fatal(err)
	}
	sums := map[string]uint64{}
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "dram.ch") {
			sums[name[strings.LastIndexByte(name, '.')+1:]] += v
		}
	}
	for cmd, total := range map[string]string{
		"rd": "dram.reads", "wr": "dram.writes", "act": "dram.activations", "pre": "dram.row_conflicts",
	} {
		if sums[cmd] != snap.Counters[total] || sums[cmd] == 0 {
			t.Errorf("per-bank %s counters sum to %d, %s is %d", cmd, sums[cmd], total, snap.Counters[total])
		}
	}
}

// TestSweepTraceValid: an instrumented sweep must emit a loadable trace
// with warm/point/sample spans, one point span per (point, sample) task.
func TestSweepTraceValid(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("full instrumented sweep; skipped in -short and -race runs")
	}
	e := goldenExplorer()
	e.Jobs = 4
	var buf bytes.Buffer
	e.Tracer = obs.NewTracer(&buf)
	sw, err := e.Sweep(context.Background(), workload.WebSearch(), []float64{0.5e9, 2.0e9})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Tracer.Close(); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Cat string `json:"cat"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("sweep trace is not valid JSON: %v", err)
	}
	cats := map[string]int{}
	for _, ev := range trace.TraceEvents {
		cats[ev.Cat]++
	}
	if cats["sweep"] < 1 || cats["point"] != sw.Points[0].Samples+sw.Points[1].Samples || cats["sample"] == 0 {
		t.Fatalf("trace missing expected span categories: %v", cats)
	}
}
