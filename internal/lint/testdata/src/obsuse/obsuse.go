// Package obsuse consumes obspkg the way instrumented layers consume
// internal/obs; the obsgate analyzer polices the boundary.
package obsuse

import (
	"obspkg"
	"obspkg/ts"
)

func methodsAreFine() uint64 {
	c := obspkg.New()
	c.Add(1)
	var disabled *obspkg.Counter // nil when observability is off
	disabled.Add(1)              // nil-safe no-op: the whole point of the pattern
	return c.Value() + disabled.Value()
}

func structuralAccess() uint64 {
	lit := obspkg.Counter{}  // want `composite literal of obs\.Counter outside internal/obs`
	ptr := &obspkg.Counter{} // want `composite literal of obs\.Counter outside internal/obs`
	lit.Add(1)
	return ptr.N // want `direct field access on obs\.Counter outside internal/obs`
}

func snapshotsAreData() uint64 {
	s := obspkg.Snap(obspkg.New())
	empty := obspkg.Snapshot{}
	return s.Counters["n"] + uint64(len(empty.Counters))
}

// Subpackages of the gated tree (the telemetry sampler hooks) fall
// under the same gate: Series is gated, Sample is an exempt carrier.
func subpackageHooks() int {
	ser := ts.NewSeries()
	ser.Record(ts.Sample{Epoch: 1, NJ: 42}) // carrier literal: exempt
	var disabled *ts.Series                 // nil when telemetry is off
	disabled.Record(ts.Sample{})            // nil-safe no-op
	return ser.Len() + disabled.Len()
}

func subpackageStructural() int {
	ser := ts.Series{} // want `composite literal of obs\.Series outside internal/obs`
	ser.Record(ts.Sample{Epoch: 2})
	return ser.Len()
}

func annotated() *obspkg.Counter {
	//ntclint:allow obsgate fixture: test helper constructing a known-good value
	return &obspkg.Counter{}
}
