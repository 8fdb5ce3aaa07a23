package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strconv"
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
func serveTestSetup(t *testing.T) (*governor.Config, governor.LoadTrace) {
	t.Helper()
	spec := platform.Default()
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
		Uncore:         governor.UncoreBreakdown{IOW: 23},
		MemBackgroundW: 15,
		MemDynPerReq:   1e-3,
		Margin:         0.85,
	}
	trace := governor.DiurnalTrace(24, 600, 0.2, 0.05, 1.4, rng.New(7)).WithStep(time.Second)
	return cfg, trace
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
// serve driver: both views — two fan-outs of four concurrent simulations
// across the pool — must print byte-identical reports at any jobs value.
func TestServeReportAcrossJobs(t *testing.T) {
	cfg, trace := serveTestSetup(t)
	run := func(jobs int) string {
		var buf bytes.Buffer
		env := Env{Out: obs.NewSyncWriter(&buf), Seams: core.Seams{Jobs: jobs}}
		for _, v := range []serveView{balancerView, policyView} {
			if err := serveReport(context.Background(), env, v, cfg, trace, 0x5eed); err != nil {
				t.Fatal(err)
			}
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

// TestServeReportShape sanity-checks each view's table against the
// question it answers and the physics it reports: the serve view runs
// every balancer under max-frequency, the governor view every policy on
// join-shortest-queue; every row serves traffic; race-to-idle undercuts
// the max-frequency energy on the same balancer; and the max-frequency /
// join-shortest-queue row both views share is byte-identical in each.
func TestServeReportShape(t *testing.T) {
	cfg, trace := serveTestSetup(t)
	rows := func(v serveView) []string {
		var buf bytes.Buffer
		if err := serveReport(context.Background(), Env{Out: obs.NewSyncWriter(&buf)}, v, cfg, trace, 1); err != nil {
			t.Fatal(err)
		}
		return strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")[1:] // drop the header
	}
	bal, pol := rows(balancerView), rows(policyView)
	energy := map[string]float64{} // policy-view energy_kJ by policy
	for _, tc := range []struct {
		v    serveView
		rows []string
		want [][2]string // policy, balancer per row
	}{
		{balancerView, bal, [][2]string{
			{"max-frequency", "random"}, {"max-frequency", "round-robin"},
			{"max-frequency", "least-loaded"}, {"max-frequency", "join-shortest-queue"},
		}},
		{policyView, pol, [][2]string{
			{"max-frequency", "join-shortest-queue"}, {"race-to-idle", "join-shortest-queue"},
			{"tracking", "join-shortest-queue"}, {"queue-aware", "join-shortest-queue"},
		}},
	} {
		if len(tc.rows) != len(tc.want) {
			t.Fatalf("%s: %d rows, want %d", tc.v.title, len(tc.rows), len(tc.want))
		}
		for i, w := range tc.want {
			f := strings.Fields(tc.rows[i])
			if f[0] != w[0] || f[1] != w[1] {
				t.Fatalf("%s row %d = %s/%s, want %s/%s", tc.v.title, i, f[0], f[1], w[0], w[1])
			}
			if served, err := strconv.Atoi(f[2]); err != nil || served <= 0 {
				t.Fatalf("row serves no traffic: %q", tc.rows[i])
			}
			kJ, err := strconv.ParseFloat(f[9], 64)
			if err != nil {
				t.Fatalf("row energy: %v", err)
			}
			if tc.v == policyView {
				energy[f[0]] = kJ
			}
		}
	}
	if bal[3] != pol[0] {
		t.Fatalf("shared max-frequency/join-shortest-queue row differs between views:\n%s\n%s", bal[3], pol[0])
	}
	if energy["race-to-idle"] >= energy["max-frequency"] {
		t.Fatalf("race-to-idle %.2f kJ does not undercut max-frequency %.2f kJ",
			energy["race-to-idle"], energy["max-frequency"])
	}
}

// TestTelemetryDeterministicAcrossJobs is the counter-class determinism
// gate for the whole telemetry path: for each view, the CSV dump, the
// trace counter lane and the conservation audit must be byte-identical
// no matter how the serve scenarios were scheduled across workers. Each
// view records into its own sampler, so the scenario both views share is
// recorded once per sampler.
func TestTelemetryDeterministicAcrossJobs(t *testing.T) {
	cfg, trace := serveTestSetup(t)
	run := func(v serveView, jobs int) (csv string, counters string) {
		sampler := timeseries.NewSampler()
		var traceBuf bytes.Buffer
		tracer := obs.NewTracer(&traceBuf)
		var buf bytes.Buffer
		env := Env{Out: obs.NewSyncWriter(&buf), Seams: core.Seams{Jobs: jobs, Tracer: tracer, Telemetry: sampler}}
		if err := serveReport(context.Background(), env, v, cfg, trace, 0x5eed); err != nil {
			t.Fatal(err)
		}
		if err := sampler.Audit(0); err != nil {
			t.Fatalf("%s jobs=%d: %v", v.title, jobs, err)
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
	for _, tc := range []struct {
		v      serveView
		series string // one series the view must record
	}{
		{balancerView, "serve/max-frequency/random"},
		{policyView, "serve/tracking/join-shortest-queue"},
	} {
		wantCSV, wantC := run(tc.v, 1)
		if !strings.Contains(wantCSV, tc.series) {
			t.Fatalf("%s: telemetry CSV missing series %s:\n%s", tc.v.title, tc.series, wantCSV)
		}
		if wantC == "" {
			t.Fatalf("%s: no counter events emitted", tc.v.title)
		}
		for _, jobs := range []int{4, 8} {
			gotCSV, gotC := run(tc.v, jobs)
			if gotCSV != wantCSV {
				t.Fatalf("%s: telemetry CSV differs between jobs=1 and jobs=%d:\n%s",
					tc.v.title, jobs, serveDiffHint(wantCSV, gotCSV))
			}
			if gotC != wantC {
				t.Fatalf("%s: trace counter lane differs between jobs=1 and jobs=%d:\n%s",
					tc.v.title, jobs, serveDiffHint(wantC, gotC))
			}
		}
	}
}

// TestSharedScenarioRecordedOnce runs governor then serve through runSeq,
// the loop behind `ntcsim all`, on one telemetry sampler. The scenario both views print must be simulated once: each of
// the seven serve series holds exactly one sample per epoch and cluster,
// the audit balances, and the printed reports equal the two experiments
// run on their own.
func TestSharedScenarioRecordedOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a web-search sweep and seven serving simulations; skipped in -short runs")
	}
	ctx := context.Background()
	p := Params{Seed: 0x5eed, WarmInstr: 200_000, SettleCycles: 10_000}.Normalized()
	memo := core.NewSweepMemo()
	sampler := timeseries.NewSampler()
	var all bytes.Buffer
	env := Env{Out: obs.NewSyncWriter(&all), Seams: core.Seams{Memo: memo, Telemetry: sampler}}
	if err := runSeq(ctx, p, env, []string{"governor", "serve"}); err != nil {
		t.Fatal(err)
	}

	var alone bytes.Buffer
	for _, name := range []string{"governor", "serve"} {
		spec, _ := Lookup(name)
		if err := spec.Run(ctx, p, Env{Out: obs.NewSyncWriter(&alone), Seams: core.Seams{Memo: memo}}); err != nil {
			t.Fatal(err)
		}
	}
	if all.String() != alone.String() {
		t.Fatalf("runSeq output differs from the experiments run alone:\n%s", serveDiffHint(alone.String(), all.String()))
	}

	spec := platform.Default()
	const epochs = 96 // diurnalDay's trace length
	var serveSeries int
	for _, ser := range sampler.All() {
		if !strings.HasPrefix(ser.Name(), "serve/") {
			continue
		}
		serveSeries++
		seen := map[[2]int]bool{}
		for _, sm := range ser.Samples() {
			k := [2]int{sm.Epoch, sm.Cluster}
			if seen[k] {
				t.Fatalf("%s: epoch %d cluster %d recorded twice", ser.Name(), sm.Epoch, sm.Cluster)
			}
			seen[k] = true
		}
		if len(seen) != epochs*spec.Clusters {
			t.Fatalf("%s: %d samples, want %d epochs x %d clusters", ser.Name(), len(seen), epochs, spec.Clusters)
		}
	}
	cfg, _ := serveTestSetup(t)
	if serveSeries != len(serveScenarios(cfg)) {
		t.Fatalf("%d serve series, want one per grid scenario", serveSeries)
	}
	if err := sampler.Audit(0); err != nil {
		t.Fatal(err)
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
