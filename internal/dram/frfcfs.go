package dram

import (
	"fmt"
	"math"
	"sort"

	"ntcsim/internal/stats"
)

// Request is one memory transaction tracked by the scheduling layer.
type Request struct {
	Addr     uint64
	Write    bool
	ArriveNs float64
	DoneNs   float64 // filled in by the scheduler
}

// OpenRowHit reports whether a request to addr would hit the currently
// open row of its bank (used by FR-FCFS scheduling).
func (s *System) OpenRowHit(addr uint64) bool {
	loc := s.decode(addr)
	b := &s.chans[loc.chanIdx].banks[loc.bankIdx]
	return b.openRow == loc.row
}

// FRFCFS is a first-ready, first-come-first-served memory scheduler over
// the bank-state-machine backend — the policy DRAMSim2 (and most real
// controllers) use. Requests are buffered in a transaction queue; at each
// scheduling step the oldest row-hit request is issued first, falling back
// to the oldest request, with a bounded reordering window so no request
// starves. The cluster simulator uses the simpler in-order arrival model
// (its cores generate nearly in-order streams); this layer exists to
// quantify what the reordering buys on synthetic traffic (ntcsim
// memory).
type FRFCFS struct {
	sys *System
	// WindowNs bounds how far a younger row-hit may jump ahead of the
	// oldest pending request.
	WindowNs float64

	pending []*Request
	clockNs float64
}

// NewFRFCFS wraps a fresh backend built from cfg.
func NewFRFCFS(cfg Config, windowNs float64) (*FRFCFS, error) {
	if windowNs < 0 {
		return nil, fmt.Errorf("dram: negative scheduling window")
	}
	sys, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return &FRFCFS{sys: sys, WindowNs: windowNs}, nil
}

// System exposes the backend (for statistics).
func (c *FRFCFS) System() *System { return c.sys }

// Enqueue adds a transaction to the queue. Arrival times may be submitted
// in any order; scheduling sorts them.
func (c *FRFCFS) Enqueue(addr uint64, write bool, arriveNs float64) *Request {
	r := &Request{Addr: addr, Write: write, ArriveNs: arriveNs}
	c.pending = append(c.pending, r)
	return r
}

// Drain schedules every pending transaction and returns them in issue
// order with DoneNs filled in.
func (c *FRFCFS) Drain() []*Request {
	sort.SliceStable(c.pending, func(i, j int) bool {
		return c.pending[i].ArriveNs < c.pending[j].ArriveNs
	})
	issued := make([]*Request, 0, len(c.pending))
	for len(c.pending) > 0 {
		oldest := c.pending[0]
		// The reordering horizon is anchored to the oldest pending request
		// so that younger row hits can bypass it only within WindowNs of
		// its arrival — the starvation bound.
		horizon := oldest.ArriveNs + c.WindowNs

		// First ready: the oldest row-hit request within the reordering
		// window of the oldest pending request; otherwise the oldest
		// request itself. The window models the transaction-queue depth a
		// real controller reorders over (and bounds starvation).
		pick := 0
		for i, r := range c.pending {
			if r.ArriveNs > horizon {
				break // pending is sorted by arrival
			}
			if c.sys.OpenRowHit(r.Addr) {
				pick = i
				break
			}
		}
		r := c.pending[pick]
		c.pending = append(c.pending[:pick], c.pending[pick+1:]...)

		issueAt := math.Max(c.clockNs, r.ArriveNs)
		r.DoneNs = c.sys.Submit(r.Addr, r.Write, issueAt)
		c.clockNs = issueAt
		issued = append(issued, r)
	}
	return issued
}

// ScheduleStats summarizes a drained request set.
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

// Summarize computes latency statistics over issued requests.
func Summarize(reqs []*Request, backend Stats) ScheduleStats {
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
