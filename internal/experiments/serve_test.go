package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"ntcsim/internal/core"
	"ntcsim/internal/governor"
	"ntcsim/internal/obs"
	"ntcsim/internal/obs/timeseries"
	"ntcsim/internal/platform"
	"ntcsim/internal/qos"
	"ntcsim/internal/rng"
)

// serveTestSetup builds a synthetic serving comparison (no sweep, no
// simulation warmup) so the report itself can be exercised quickly.
func serveTestSetup(t *testing.T) (ServeShape, *governor.Config, governor.LoadTrace) {
	t.Helper()
	spec, err := platform.Default()
	if err != nil {
		t.Fatal(err)
	}
	curve, err := governor.NewPerfCurve([]governor.PerfPoint{
		{FreqHz: 0.2e9, UIPS: 4e9}, {FreqHz: 0.5e9, UIPS: 9e9}, {FreqHz: 1.0e9, UIPS: 16e9},
		{FreqHz: 1.5e9, UIPS: 21e9}, {FreqHz: 2.0e9, UIPS: 25e9},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := &governor.Config{
		Platform:       spec,
		Curve:          curve,
		Tail:           qos.NewTailModel(spec.TotalCores(), 50*time.Millisecond, 25e9),
		QoSLimit:       200 * time.Millisecond,
		UncoreW:        23,
		MemBackgroundW: 15,
		MemDynPerReq:   1e-3,
		Margin:         0.85,
	}
	trace := governor.DiurnalTrace(24, 600, 0.2, 0.05, 1.4, rng.New(7)).WithStep(time.Second)
	shape := ServeShape{
		Clusters:        spec.Clusters,
		CoresPerCluster: spec.CoresPerCl,
		Warmup:          2 * time.Second,
	}
	return shape, cfg, trace
}

// serveDiffHint locates the first differing line so a failure is
// actionable without an external diff tool.
func serveDiffHint(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	n := len(wl)
	if len(gl) < n {
		n = len(gl)
	}
	for i := 0; i < n; i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("first diff at line %d:\n  want: %q\n  got:  %q", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("line counts differ: want %d, got %d", len(wl), len(gl))
}

// TestServeReportAcrossJobs is the worker-count determinism gate for the
// serve driver: the full report — seven concurrent simulations fanned out
// across the pool — must be byte-identical at any jobs value.
func TestServeReportAcrossJobs(t *testing.T) {
	shape, cfg, trace := serveTestSetup(t)
	run := func(jobs int) string {
		var buf bytes.Buffer
		if err := ServeReport(context.Background(), Env{Out: obs.NewSyncWriter(&buf), Seams: core.Seams{Jobs: jobs}}, shape, cfg, trace, 0x5eed); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	want := run(1)
	for _, jobs := range []int{4, 8} {
		if got := run(jobs); got != want {
			t.Fatalf("serve report differs between jobs=1 and jobs=%d:\n%s", jobs, serveDiffHint(want, got))
		}
	}
}

// TestServeReportShape sanity-checks the table against the physics it
// reports: every scenario serves traffic, and race-to-idle must undercut
// the max-frequency energy on the same balancer.
func TestServeReportShape(t *testing.T) {
	shape, cfg, trace := serveTestSetup(t)
	var buf bytes.Buffer
	if err := ServeReport(context.Background(), Env{Out: obs.NewSyncWriter(&buf)}, shape, cfg, trace, 1); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"max-frequency", "race-to-idle", "tracking", "queue-aware",
		"random", "round-robin", "least-loaded", "join-shortest-queue",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("serve report missing %q:\n%s", want, out)
		}
	}
}

// TestTelemetryDeterministicAcrossJobs is the counter-class determinism
// gate for the whole telemetry path: the CSV dump, the trace counter
// lane and the conservation audit must be byte-identical no matter how
// the serve scenarios were scheduled across workers.
func TestTelemetryDeterministicAcrossJobs(t *testing.T) {
	shape, cfg, trace := serveTestSetup(t)
	run := func(jobs int) (csv string, counters string) {
		sampler := timeseries.NewSampler()
		var traceBuf bytes.Buffer
		tracer := obs.NewTracer(&traceBuf)
		var buf bytes.Buffer
		env := Env{Out: obs.NewSyncWriter(&buf), Seams: core.Seams{Jobs: jobs, Tracer: tracer, Telemetry: sampler}}
		if err := ServeReport(context.Background(), env, shape, cfg, trace, 0x5eed); err != nil {
			t.Fatal(err)
		}
		if err := sampler.Audit(0); err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		var csvBuf bytes.Buffer
		if err := sampler.WriteCSV(&csvBuf); err != nil {
			t.Fatal(err)
		}
		sampler.EmitTraceCounters(tracer)
		if err := tracer.Close(); err != nil {
			t.Fatal(err)
		}
		return csvBuf.String(), counterEvents(t, traceBuf.Bytes())
	}
	wantCSV, wantC := run(1)
	if !strings.Contains(wantCSV, "serve/tracking/join-shortest-queue") {
		t.Fatalf("telemetry CSV missing expected series:\n%s", wantCSV)
	}
	if wantC == "" {
		t.Fatal("no counter events emitted")
	}
	for _, jobs := range []int{4, 8} {
		gotCSV, gotC := run(jobs)
		if gotCSV != wantCSV {
			t.Fatalf("telemetry CSV differs between jobs=1 and jobs=%d:\n%s",
				jobs, serveDiffHint(wantCSV, gotCSV))
		}
		if gotC != wantC {
			t.Fatalf("trace counter lane differs between jobs=1 and jobs=%d:\n%s",
				jobs, serveDiffHint(wantC, gotC))
		}
	}
}

// counterEvents extracts the "C"-phase events from a Chrome trace file in
// their file order and re-marshals them canonically. Live duration spans
// interleave nondeterministically under parallel scheduling, so only the
// counter lane — emitted post-run in canonical order — is compared.
func counterEvents(t *testing.T, trace []byte) string {
	t.Helper()
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(trace, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var b strings.Builder
	for _, ev := range doc.TraceEvents {
		if ev["ph"] != "C" {
			continue
		}
		line, err := json.Marshal(ev) // map keys marshal sorted
		if err != nil {
			t.Fatal(err)
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	return b.String()
}
