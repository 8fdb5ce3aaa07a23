package dram

import "ntcsim/internal/stats"

// Request is one memory transaction of a synthetic trace (ntcsim
// memory): the trace is submitted to a System in arrival order and
// DoneNs records its completion.
type Request struct {
	Addr     uint64
	Write    bool
	ArriveNs float64
	DoneNs   float64
}

// ScheduleStats summarizes a completed request set.
type ScheduleStats struct {
	Requests     int
	AvgLatencyNs float64
	P50LatencyNs float64
	P95LatencyNs float64
	P99LatencyNs float64
	MaxLatencyNs float64
	RowHitRate   float64
	LastDoneNs   float64
}

// Summarize computes latency statistics over completed requests.
func Summarize(reqs []Request, backend Stats) ScheduleStats {
	var st ScheduleStats
	st.Requests = len(reqs)
	if len(reqs) == 0 {
		return st
	}
	var sum float64
	lats := make([]float64, 0, len(reqs))
	for _, r := range reqs {
		lat := r.DoneNs - r.ArriveNs
		lats = append(lats, lat)
		sum += lat
		if lat > st.MaxLatencyNs {
			st.MaxLatencyNs = lat
		}
		if r.DoneNs > st.LastDoneNs {
			st.LastDoneNs = r.DoneNs
		}
	}
	st.AvgLatencyNs = sum / float64(len(reqs))
	st.P50LatencyNs = stats.Percentile(lats, 0.50)
	st.P95LatencyNs = stats.Percentile(lats, 0.95)
	st.P99LatencyNs = stats.Percentile(lats, 0.99)
	st.RowHitRate = backend.RowHitRate()
	return st
}
