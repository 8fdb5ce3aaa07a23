package service

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"ntcsim/internal/obs"
)

// runJob submits one job and waits for it to finish; it returns the
// job's report, the counter-class part of its metrics artifact and its
// telemetry artifact.
func runJob(t *testing.T, ts *httptest.Server, body string) (report, metrics, telemetry []byte) {
	t.Helper()
	st, resp := submit(t, ts, body)
	if resp.StatusCode != 201 {
		t.Fatalf("submit %s: status %d", body, resp.StatusCode)
	}
	deadline := time.Now().Add(5 * time.Minute)
	for {
		raw, _ := getBody(t, ts.URL+"/v1/jobs/"+st.ID)
		var cur Status
		if err := json.Unmarshal(raw, &cur); err != nil {
			t.Fatal(err)
		}
		if cur.State == StateDone {
			break
		}
		if cur.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job %s is %q (err %q)", st.ID, cur.State, cur.Error)
		}
		time.Sleep(20 * time.Millisecond)
	}
	artifact := func(name string) []byte {
		b, code := getBody(t, ts.URL+"/v1/jobs/"+st.ID+"/result?artifact="+name)
		if code != 200 {
			t.Fatalf("artifact %s: status %d", name, code)
		}
		return b
	}
	// The metrics artifact's timing section is wall-clock data; the rest
	// is the determinism contract's counter-class part.
	var snap obs.Snapshot
	if err := json.Unmarshal(artifact("metrics"), &snap); err != nil {
		t.Fatal(err)
	}
	var mb bytes.Buffer
	if err := snap.Deterministic().WriteJSON(&mb); err != nil {
		t.Fatal(err)
	}
	return artifact("report"), mb.Bytes(), artifact("telemetry")
}

// memoGauge reads one service/sweep_memo_* gauge off /metrics.
func memoGauge(t *testing.T, ts *httptest.Server, name string) float64 {
	t.Helper()
	raw, _ := getBody(t, ts.URL+"/metrics")
	var snap obs.Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	v, ok := snap.Gauges["service/sweep_memo_"+name]
	if !ok {
		t.Fatalf("/metrics has no service/sweep_memo_%s gauge: %s", name, raw)
	}
	return v
}

// TestGovernorReusesServeSweep: serve and governor sweep the same
// web-search points, so on one server the governor job's sweep is a memo
// hit. Its report, metrics and telemetry must be byte-identical to those
// of a governor job on a fresh server, and the memo's bookkeeping shows
// only on the service's own metrics.
func TestGovernorReusesServeSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real serve and governor jobs; skipped in -short")
	}
	const params = `"params": {"seed": 24301, "warm_instr": 200000, "settle_cycles": 10000}`
	governor := `{"experiment": "governor", ` + params + `}`

	_, fresh := newTestServer(t, Config{Workers: 1})
	wantRep, wantMet, wantTel := runJob(t, fresh, governor)
	if hits := memoGauge(t, fresh, "hits"); hits != 0 {
		t.Fatalf("fresh server: %v memo hits, want 0", hits)
	}

	_, shared := newTestServer(t, Config{Workers: 1})
	runJob(t, shared, `{"experiment": "serve", `+params+`}`)
	rep, met, tel := runJob(t, shared, governor)
	if hits := memoGauge(t, shared, "hits"); hits != 1 {
		t.Fatalf("shared server: %v memo hits, want 1", hits)
	}
	if n := memoGauge(t, shared, "entries"); n != 1 {
		t.Fatalf("shared server: %v memo entries, want 1", n)
	}
	if !bytes.Equal(rep, wantRep) {
		t.Fatalf("governor report after serve differs from a fresh server's:\n%s\nvs\n%s", rep, wantRep)
	}
	if !bytes.Equal(met, wantMet) {
		t.Fatalf("governor metrics after serve differ from a fresh server's:\n%s\nvs\n%s", met, wantMet)
	}
	if !bytes.Equal(tel, wantTel) {
		t.Fatal("governor telemetry after serve differs from a fresh server's")
	}
	for _, m := range [][]byte{met, wantMet} {
		if bytes.Contains(m, []byte("sweep_memo")) {
			t.Fatalf("memo bookkeeping leaked into a job's metrics: %s", m)
		}
	}
}
