package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ntcsim/internal/experiments"
	"ntcsim/internal/obs"
	"ntcsim/internal/obs/timeseries"
)

// The test experiments: one that counts its executions (cache-hit
// proof), one that reports progress then blocks until canceled
// (cancellation and SSE liveness proof), and one whose telemetry ledger
// disagrees with its reported total (conservation-audit proof).
var blockRuns, countRuns, leakRuns atomic.Int64

func init() {
	experiments.Register(experiments.Spec{
		Name:  "svc-test-count",
		Title: "test: deterministic output, counts executions",
		Run: func(ctx context.Context, p experiments.Params, env experiments.Env) error {
			countRuns.Add(1)
			fmt.Fprintf(env.Out, "svc-test-count seed=%d warm=%d\n", p.Seed, p.WarmInstr)
			return nil
		},
	})
	experiments.Register(experiments.Spec{
		Name:  "svc-test-block",
		Title: "test: reports progress then blocks until canceled",
		Run: func(ctx context.Context, p experiments.Params, env experiments.Env) error {
			blockRuns.Add(1)
			env.Progress.Add(2)
			env.Progress.Done("unit-0", time.Millisecond)
			<-ctx.Done()
			return context.Cause(ctx)
		},
	})
	experiments.Register(experiments.Spec{
		Name:  "svc-test-leak",
		Title: "test: records a ledger that misses half its reported energy",
		Run: func(ctx context.Context, p experiments.Params, env experiments.Env) error {
			leakRuns.Add(1)
			ser := env.Telemetry.Series("svc-test/leak")
			ser.Record(timeseries.Sample{Cluster: -1, Dur: time.Second,
				Energy: timeseries.Ledger{CoreDynNJ: timeseries.NJ(1)}})
			ser.ReportTotal(2)
			fmt.Fprintln(env.Out, "svc-test-leak")
			return nil
		},
	})
}

// newTestServer starts an engine plus real HTTP frontend (SSE needs
// streaming, so httptest.NewServer rather than a ResponseRecorder) and
// registers cleanup that drains both.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	svc := New(cfg)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := svc.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return svc, ts
}

// submit POSTs a job and decodes the created Status.
func submit(t *testing.T, ts *httptest.Server, body string) (Status, *http.Response) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Status
	if resp.StatusCode == http.StatusCreated {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return st, resp
}

// waitState polls the status endpoint until the job reaches want.
func waitState(t *testing.T, ts *httptest.Server, id string, want State) Status {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st Status
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State == want {
			return st
		}
		if st.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job %s is %q (err %q), want %q", id, st.State, st.Error, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// getBody fetches a URL and returns the body bytes and status code.
func getBody(t *testing.T, url string) ([]byte, int) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b, resp.StatusCode
}

// TestJobLifecycle drives the full happy path over real HTTP: submit ->
// poll -> SSE replay -> result download, with the report byte-identical
// to a direct experiments.Run of the same params, and a second
// submission served from the cache without re-running.
func TestJobLifecycle(t *testing.T) {
	countRuns.Store(0)
	_, ts := newTestServer(t, Config{Workers: 1})

	st, resp := submit(t, ts, `{"experiment": "svc-test-count", "params": {"seed": 11}}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/jobs/"+st.ID {
		t.Fatalf("Location = %q", loc)
	}
	done := waitState(t, ts, st.ID, StateDone)
	if done.Cached {
		t.Fatal("first run must not be a cache hit")
	}
	if want := []string{"metrics", "report", "telemetry"}; fmt.Sprint(done.Artifacts) != fmt.Sprint(want) {
		t.Fatalf("artifacts = %v, want %v", done.Artifacts, want)
	}

	// The report must be byte-identical to the same experiment run
	// directly through the uniform API.
	var want bytes.Buffer
	if _, err := experiments.Run(context.Background(), "svc-test-count",
		experiments.Params{Seed: 11}, experiments.Env{Out: obs.NewSyncWriter(&want)}); err != nil {
		t.Fatal(err)
	}
	got, code := getBody(t, ts.URL+"/v1/jobs/"+st.ID+"/result")
	if code != http.StatusOK || !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("result (status %d) differs from direct run:\n%q\nvs\n%q", code, got, want.Bytes())
	}

	// SSE replay of a settled job: queued, running, done, then EOF.
	events := readSSE(t, ts, st.ID, -1)
	var states []State
	for _, ev := range events {
		if ev.Type == "state" {
			states = append(states, ev.State)
		}
	}
	if fmt.Sprint(states) != fmt.Sprint([]State{StateQueued, StateRunning, StateDone}) {
		t.Fatalf("SSE state sequence = %v", states)
	}

	// Resubmission with identical params: served from cache, same
	// bytes, no second execution.
	st2, _ := submit(t, ts, `{"experiment": "svc-test-count", "params": {"seed": 11}}`)
	if !st2.Cached || st2.State != StateDone {
		t.Fatalf("resubmission not served from cache: %+v", st2)
	}
	if st2.Key != st.Key {
		t.Fatalf("cache key drifted: %s vs %s", st2.Key, st.Key)
	}
	got2, _ := getBody(t, ts.URL+"/v1/jobs/"+st2.ID+"/result")
	if !bytes.Equal(got2, got) {
		t.Fatal("cached result bytes differ from the computed ones")
	}
	// One run in the service plus the direct comparison run above — the
	// cache hit itself must not have executed anything.
	if n := countRuns.Load(); n != 2 {
		t.Fatalf("experiment ran %d times, want 2 (cache hit recomputed?)", n)
	}

	// Different params -> different key -> a real second run.
	st3, _ := submit(t, ts, `{"experiment": "svc-test-count", "params": {"seed": 12}}`)
	if st3.Cached {
		t.Fatal("different params must not hit the cache")
	}
	waitState(t, ts, st3.ID, StateDone)
	if n := countRuns.Load(); n != 3 {
		t.Fatalf("experiment ran %d times, want 3", n)
	}
}

// TestUnconservedTelemetryFails: a job that finishes but whose energy
// ledger fails the conservation audit settles as failed, with the audit's
// error, and is not cached — resubmitting it runs it again. Its telemetry
// CSV is its only artifact: served on request, while the report, the
// metrics and the default artifact are refused.
func TestUnconservedTelemetryFails(t *testing.T) {
	leakRuns.Store(0)
	_, ts := newTestServer(t, Config{Workers: 1})
	const body = `{"experiment": "svc-test-leak", "params": {"seed": 3}}`
	for run := int64(1); run <= 2; run++ {
		st, resp := submit(t, ts, body)
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("submit %d: status %d", run, resp.StatusCode)
		}
		if st.Cached {
			t.Fatalf("submit %d: a job that failed its audit was served from the cache", run)
		}
		failed := waitState(t, ts, st.ID, StateFailed)
		if !strings.Contains(failed.Error, "energy not conserved") {
			t.Fatalf("submit %d: error %q does not name the audit", run, failed.Error)
		}
		if n := leakRuns.Load(); n != run {
			t.Fatalf("experiment ran %d times after %d submissions", n, run)
		}
		if !slices.Equal(failed.Artifacts, []string{"telemetry"}) {
			t.Fatalf("submit %d: artifacts %v, want only the telemetry", run, failed.Artifacts)
		}
		result := ts.URL + "/v1/jobs/" + st.ID + "/result"
		for _, q := range []string{"", "?artifact=report", "?artifact=metrics"} {
			if _, code := getBody(t, result+q); code != http.StatusConflict {
				t.Fatalf("submit %d: result%s of a failed job: status %d, want 409", run, q, code)
			}
		}
		resp, err := http.Get(result + "?artifact=telemetry")
		if err != nil {
			t.Fatal(err)
		}
		csv, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "text/csv" {
			t.Fatalf("submit %d: telemetry of a failed job: status %d, Content-Type %q",
				run, resp.StatusCode, resp.Header.Get("Content-Type"))
		}
		if !strings.Contains(string(csv), "svc-test/leak") {
			t.Fatalf("submit %d: telemetry lacks the leaking series:\n%s", run, csv)
		}
	}
}

// readSSE consumes the event stream for a job until it ends (settled
// job) or until minEvents have arrived (minEvents >= 0); the stream end
// must coincide with a terminal state either way.
func readSSE(t *testing.T, ts *httptest.Server, id string, minEvents int) []Event {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events: Content-Type %q", ct)
	}
	var out []Event
	sc := bufio.NewScanner(resp.Body)
	var data string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		case line == "" && data != "":
			var ev Event
			if err := json.Unmarshal([]byte(data), &ev); err != nil {
				t.Fatalf("bad SSE data %q: %v", data, err)
			}
			out = append(out, ev)
			data = ""
			if minEvents >= 0 && len(out) >= minEvents {
				return out
			}
		}
	}
	return out
}

// TestCancellation: a running job is canceled through DELETE, the
// progress it made is visible over SSE, its result stays refused, and a
// second DELETE conflicts. Afterwards the engine drains with no
// goroutine leaks.
func TestCancellation(t *testing.T) {
	blockRuns.Store(0)
	before := runtime.NumGoroutine()
	svc := New(Config{Workers: 1, Grace: 100 * time.Millisecond})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	st, resp := submit(t, ts, `{"experiment": "svc-test-block"}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	waitState(t, ts, st.ID, StateRunning)

	// The blocked job streams its progress live.
	evs := readSSE(t, ts, st.ID, 3) // queued, running, progress
	last := evs[len(evs)-1]
	if last.Type != "progress" || last.Done != 1 || last.Total != 2 {
		t.Fatalf("expected a 1/2 progress event, got %+v", evs)
	}

	// The result of an unfinished job is a conflict.
	if _, code := getBody(t, ts.URL+"/v1/jobs/"+st.ID+"/result"); code != http.StatusConflict {
		t.Fatalf("result of a running job: status %d, want 409", code)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: status %d, want 202", dresp.StatusCode)
	}
	canceled := waitState(t, ts, st.ID, StateCanceled)
	if canceled.Error == "" {
		t.Fatal("canceled job should carry the cancellation cause")
	}
	// Still no result, and canceling an already-settled job conflicts.
	if _, code := getBody(t, ts.URL+"/v1/jobs/"+st.ID+"/result"); code != http.StatusConflict {
		t.Fatalf("result of a canceled job: status %d, want 409", code)
	}
	dresp2, err := http.DefaultClient.Do(req.Clone(context.Background()))
	if err != nil {
		t.Fatal(err)
	}
	dresp2.Body.Close()
	if dresp2.StatusCode != http.StatusConflict {
		t.Fatalf("second cancel: status %d, want 409", dresp2.StatusCode)
	}

	// Drain and verify the worker pool and watchers unwound.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	ts.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		buf := make([]byte, 1<<16)
		t.Fatalf("goroutine leak after drain: %d -> %d\n%s", before, n, buf[:runtime.Stack(buf, true)])
	}
}

// TestDrain: draining cancels queued work, refuses new submissions with
// 503, flips /healthz, and cancels running jobs after the grace window.
func TestDrain(t *testing.T) {
	svc := New(Config{Workers: 1, Grace: 50 * time.Millisecond})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	if _, code := getBody(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz before drain: %d", code)
	}

	// One running job holding the only worker, one stuck in the queue.
	running, _ := submit(t, ts, `{"experiment": "svc-test-block"}`)
	waitState(t, ts, running.ID, StateRunning)
	queued, _ := submit(t, ts, `{"experiment": "svc-test-block", "params": {"seed": 9}}`)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	if st, err := svc.Status(queued.ID); err != nil || st.State != StateCanceled {
		t.Fatalf("queued job after drain: %+v, %v", st, err)
	}
	if st, err := svc.Status(running.ID); err != nil || st.State != StateCanceled {
		t.Fatalf("running job after drain: %+v, %v", st, err)
	}
	if _, err := svc.Submit("svc-test-count", experiments.Params{}); err != ErrDraining {
		t.Fatalf("submit while draining: %v, want ErrDraining", err)
	}
	if _, code := getBody(t, ts.URL+"/healthz"); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %d, want 503", code)
	}
}

// TestBadRequests covers the strict decoding and lookup failures on the
// HTTP surface.
func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	cases := []struct {
		name string
		body string
		code int
	}{
		{"unknown experiment", `{"experiment": "nope"}`, http.StatusBadRequest},
		{"missing name", `{}`, http.StatusBadRequest},
		{"unknown outer field", `{"experiment": "svc-test-count", "prams": {}}`, http.StatusBadRequest},
		{"unknown param field", `{"experiment": "svc-test-count", "params": {"sede": 1}}`, http.StatusBadRequest},
		{"bad fidelity", `{"experiment": "svc-test-count", "params": {"fidelity": "bogus"}}`, http.StatusBadRequest},
		{"trailing garbage", `{"experiment": "svc-test-count"} x`, http.StatusBadRequest},
		{"not json", `hello`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, resp := submit(t, ts, tc.body)
			if resp.StatusCode != tc.code {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.code)
			}
		})
	}

	if _, code := getBody(t, ts.URL+"/v1/jobs/j999"); code != http.StatusNotFound {
		t.Fatalf("unknown job: %d, want 404", code)
	}
	if _, code := getBody(t, ts.URL+"/v1/jobs/j999/result"); code != http.StatusNotFound {
		t.Fatalf("unknown job result: %d, want 404", code)
	}
	st, _ := submit(t, ts, `{"experiment": "svc-test-count"}`)
	waitState(t, ts, st.ID, StateDone)
	if _, code := getBody(t, ts.URL+"/v1/jobs/"+st.ID+"/result?artifact=bogus"); code != http.StatusNotFound {
		t.Fatalf("unknown artifact: %d, want 404", code)
	}
}

// TestListAndMetaEndpoints smoke-tests the listing surfaces: job list in
// submission order, experiment catalog, service metrics.
func TestListAndMetaEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	a, _ := submit(t, ts, `{"experiment": "svc-test-count", "params": {"warm_instr": 77}}`)
	waitState(t, ts, a.ID, StateDone)

	body, code := getBody(t, ts.URL+"/v1/jobs")
	var list []Status
	if err := json.Unmarshal(body, &list); err != nil || code != http.StatusOK {
		t.Fatalf("list: %d %v", code, err)
	}
	if len(list) == 0 || list[len(list)-1].ID != a.ID {
		t.Fatalf("list missing submitted job: %s", body)
	}

	body, _ = getBody(t, ts.URL+"/v1/experiments")
	if !bytes.Contains(body, []byte(`"fig2"`)) || !bytes.Contains(body, []byte(`"serve"`)) {
		t.Fatalf("experiment catalog incomplete: %s", body)
	}

	body, _ = getBody(t, ts.URL+"/metrics")
	var snap obs.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("metrics not a snapshot: %v", err)
	}
	if snap.Counters["service/jobs_submitted"] == 0 {
		t.Fatalf("metrics missing submission counter: %s", body)
	}
}
