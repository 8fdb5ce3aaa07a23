package dram

import (
	"testing"
)

// interleavedRowTrace builds two request streams ping-ponging between
// different rows of the same bank: in arrival order every access is a row
// conflict.
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

func TestSummarizeEmpty(t *testing.T) {
	st := Summarize(nil, Stats{})
	if st.Requests != 0 || st.AvgLatencyNs != 0 {
		t.Fatalf("%+v", st)
	}
}

func TestSummarizePercentilesOrdered(t *testing.T) {
	cfg := DefaultConfig()
	s := mustNew(cfg)
	reqs := interleavedRowTrace(cfg, 300, 3)
	for i := range reqs {
		reqs[i].DoneNs = s.Submit(reqs[i].Addr, reqs[i].Write, reqs[i].ArriveNs)
	}
	st := Summarize(reqs, s.Stats())
	if st.Requests != len(reqs) {
		t.Fatalf("summarized %d of %d requests", st.Requests, len(reqs))
	}
	if !(st.P50LatencyNs <= st.P95LatencyNs && st.P95LatencyNs <= st.P99LatencyNs &&
		st.P99LatencyNs <= st.MaxLatencyNs) {
		t.Fatalf("latency percentiles out of order: %+v", st)
	}
	if st.P50LatencyNs <= 0 {
		t.Fatal("median latency must be positive")
	}
}
