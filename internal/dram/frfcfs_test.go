package dram

import (
	"testing"
)

// interleavedRowTrace builds the classic FR-FCFS showcase: two request
// streams ping-ponging between different rows of the same bank. In arrival
// order every access is a row conflict; reordered, each row's requests
// batch into hits.
func interleavedRowTrace(cfg Config, n int, gapNs float64) []Request {
	rowA := uint64(0)
	rowB := strideNewRow(cfg)
	var reqs []Request
	for i := 0; i < n; i++ {
		base := rowA
		if i%2 == 1 {
			base = rowB
		}
		addr := base + uint64(i/2)*strideSameRow(cfg)
		reqs = append(reqs, Request{Addr: addr, ArriveNs: float64(i) * gapNs})
	}
	return reqs
}

func runSchedule(t *testing.T, cfg Config, windowNs float64, reqs []Request) ScheduleStats {
	t.Helper()
	c, err := NewFRFCFS(cfg, windowNs)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reqs {
		c.Enqueue(r.Addr, r.Write, r.ArriveNs)
	}
	done := c.Drain()
	if len(done) != len(reqs) {
		t.Fatalf("scheduled %d of %d requests", len(done), len(reqs))
	}
	return Summarize(done, c.System().Stats())
}

func TestFRFCFSBeatsFCFSOnRowPingPong(t *testing.T) {
	cfg := DefaultConfig()
	reqs := interleavedRowTrace(cfg, 200, 2)

	fcfs := runSchedule(t, cfg, 0, reqs)  // zero window = arrival order
	frf := runSchedule(t, cfg, 200, reqs) // reorder within 200ns

	if frf.RowHitRate <= fcfs.RowHitRate {
		t.Fatalf("FR-FCFS row-hit rate %.2f should beat FCFS %.2f",
			frf.RowHitRate, fcfs.RowHitRate)
	}
	if frf.AvgLatencyNs >= fcfs.AvgLatencyNs {
		t.Fatalf("FR-FCFS latency %.1fns should beat FCFS %.1fns",
			frf.AvgLatencyNs, fcfs.AvgLatencyNs)
	}
	if frf.LastDoneNs >= fcfs.LastDoneNs {
		t.Fatal("FR-FCFS should also finish the trace sooner (higher bandwidth)")
	}
}

func TestFRFCFSNoRequestLost(t *testing.T) {
	cfg := DefaultConfig()
	c, err := NewFRFCFS(cfg, 100)
	if err != nil {
		t.Fatal(err)
	}
	addr := uint64(777)
	for i := 0; i < 500; i++ {
		addr = addr*6364136223846793005 + 1442695040888963407
		c.Enqueue(addr%(64<<30), i%3 == 0, float64(i)*3)
	}
	done := c.Drain()
	if len(done) != 500 {
		t.Fatalf("lost requests: %d/500", len(done))
	}
	for i, r := range done {
		if r.DoneNs <= r.ArriveNs {
			t.Fatalf("request %d completed before it arrived", i)
		}
	}
}

func TestFRFCFSWindowBoundsStarvation(t *testing.T) {
	cfg := DefaultConfig()
	// A conflict request at t=1 followed by a long run of row hits that
	// starve it under unbounded reordering; a bounded window caps the
	// bypassing.
	var reqs []Request
	reqs = append(reqs, Request{Addr: strideNewRow(cfg), ArriveNs: 1})
	for i := 0; i < 500; i++ {
		reqs = append(reqs, Request{Addr: uint64(i) * strideSameRow(cfg), ArriveNs: float64(i) * 1})
	}
	victimLatency := func(windowNs float64) float64 {
		c, err := NewFRFCFS(cfg, windowNs)
		if err != nil {
			t.Fatal(err)
		}
		var victim *Request
		for _, r := range reqs {
			q := c.Enqueue(r.Addr, r.Write, r.ArriveNs)
			if victim == nil {
				victim = q // the conflict request was built first
			}
		}
		c.Drain()
		return victim.DoneNs - victim.ArriveNs
	}
	bounded := victimLatency(50)
	unbounded := victimLatency(1e9)
	if bounded >= unbounded/2 {
		t.Fatalf("window should bound starvation of the conflict request: %.0fns vs %.0fns",
			bounded, unbounded)
	}
}

func TestFRFCFSZeroWindowIsArrivalOrder(t *testing.T) {
	cfg := DefaultConfig()
	reqs := interleavedRowTrace(cfg, 50, 5)
	c, err := NewFRFCFS(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reqs {
		c.Enqueue(r.Addr, r.Write, r.ArriveNs)
	}
	done := c.Drain()
	for i := 1; i < len(done); i++ {
		if done[i].ArriveNs < done[i-1].ArriveNs {
			t.Fatal("zero window must preserve arrival order")
		}
	}
}

func TestFRFCFSValidation(t *testing.T) {
	if _, err := NewFRFCFS(DefaultConfig(), -1); err == nil {
		t.Fatal("negative window should be rejected")
	}
	bad := DefaultConfig()
	bad.Channels = 3
	if _, err := NewFRFCFS(bad, 10); err == nil {
		t.Fatal("invalid backend config should propagate")
	}
}

func TestSummarizeEmpty(t *testing.T) {
	st := Summarize(nil, Stats{})
	if st.Requests != 0 || st.AvgLatencyNs != 0 {
		t.Fatalf("%+v", st)
	}
}

func TestOpenRowHit(t *testing.T) {
	cfg := DefaultConfig()
	s := mustNew(cfg)
	if s.OpenRowHit(0) {
		t.Fatal("cold bank has no open row")
	}
	s.Submit(0, false, 0)
	if !s.OpenRowHit(strideSameRow(cfg)) {
		t.Fatal("same row should report a hit")
	}
	if s.OpenRowHit(strideNewRow(cfg)) {
		t.Fatal("different row of the same bank is not a hit")
	}
}

func TestSummarizePercentilesOrdered(t *testing.T) {
	cfg := DefaultConfig()
	st := runSchedule(t, cfg, 100, interleavedRowTrace(cfg, 300, 3))
	if !(st.P50LatencyNs <= st.P95LatencyNs && st.P95LatencyNs <= st.P99LatencyNs &&
		st.P99LatencyNs <= st.MaxLatencyNs) {
		t.Fatalf("latency percentiles out of order: %+v", st)
	}
	if st.P50LatencyNs <= 0 {
		t.Fatal("median latency must be positive")
	}
}
