package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// Tracer streams events in the Chrome trace-viewer JSON array format
// (load the file in chrome://tracing or https://ui.perfetto.dev). Each
// event is a complete-duration ("ph":"X") span with microsecond
// timestamps relative to the tracer's start, placed on a numbered lane
// (the trace "tid") so concurrent sweep points render as parallel tracks.
//
// Events are written incrementally under a mutex, so the file is useful
// even for runs that are interrupted before Close (trace viewers accept
// a truncated JSON array). Write errors are sticky: the first one is
// remembered, later calls become no-ops, and Close reports it.
type Tracer struct {
	mu     sync.Mutex
	w      io.Writer
	start  time.Time
	n      int    // events written, for comma placement
	inUse  []bool // lane allocator state
	closed bool
	err    error
}

// traceEvent is one Chrome trace-viewer event.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`            // microseconds since trace start
	Dur  float64        `json:"dur,omitempty"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// NewTracer starts a trace writing to w. The caller must Close the
// tracer to terminate the JSON document and learn about write errors.
func NewTracer(w io.Writer) *Tracer {
	t := &Tracer{w: w, start: time.Now()}
	t.write([]byte(`{"traceEvents":[`))
	t.event(traceEvent{
		Name: "process_name", Ph: "M", Pid: 1,
		Args: map[string]any{"name": "ntcsim"},
	})
	return t
}

// write appends raw bytes, recording the first error. Callers hold t.mu
// or have exclusive access (NewTracer).
func (t *Tracer) write(b []byte) {
	if t.err != nil {
		return
	}
	if _, err := t.w.Write(b); err != nil {
		t.err = fmt.Errorf("obs: writing trace: %w", err)
	}
}

// event encodes and appends one event. Caller holds t.mu (or is NewTracer).
func (t *Tracer) event(ev traceEvent) {
	if t.closed || t.err != nil {
		return
	}
	b, err := json.Marshal(ev)
	if err != nil {
		t.err = fmt.Errorf("obs: encoding trace event: %w", err)
		return
	}
	if t.n > 0 {
		t.write([]byte(",\n"))
	} else {
		t.write([]byte("\n"))
	}
	t.write(b)
	t.n++
}

// Complete records a finished span of duration d that started at start,
// on the given lane. A nil tracer is a no-op, so call sites need no
// enabled-check of their own.
func (t *Tracer) Complete(cat, name string, lane int, start time.Time, d time.Duration, args map[string]any) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.event(traceEvent{
		Name: name,
		Cat:  cat,
		Ph:   "X",
		Ts:   float64(start.Sub(t.start)) / 1e3,
		Dur:  float64(d) / 1e3,
		Pid:  1,
		Tid:  lane,
		Args: args,
	})
}

// CompleteAt records a finished span on a simulated-time axis: start is an
// offset from the simulation's t=0, not a wall-clock instant, so virtual
// timelines (the discrete-event serving simulator) render with their own
// coordinates instead of the tracer's wall-clock start. Keep wall-clock
// spans (Complete) and simulated-time spans in separate trace files: the
// two time bases share the viewer's single axis.
func (t *Tracer) CompleteAt(cat, name string, lane int, start, d time.Duration, args map[string]any) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.event(traceEvent{
		Name: name,
		Cat:  cat,
		Ph:   "X",
		Ts:   float64(start) / 1e3,
		Dur:  float64(d) / 1e3,
		Pid:  1,
		Tid:  lane,
		Args: args,
	})
}

// CounterAt records a counter ("ph":"C") event on the simulated-time
// axis: the viewer renders each named counter as its own track with the
// values map stacked as an area chart — the rendering used for per-epoch
// energy-ledger lanes. Like CompleteAt, at is an offset from the
// simulation's t=0. Counter tracks are keyed by (pid, name), so the lane
// identity lives in the name, not a tid.
func (t *Tracer) CounterAt(cat, name string, at time.Duration, values map[string]float64) {
	if t == nil {
		return
	}
	args := make(map[string]any, len(values))
	// Insertion order is irrelevant: encoding/json marshals map keys in
	// sorted order, so the event bytes are deterministic.
	for k, v := range values {
		args[k] = v
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.event(traceEvent{
		Name: name,
		Cat:  cat,
		Ph:   "C",
		Ts:   float64(at) / 1e3,
		Pid:  1,
		Tid:  0,
		Args: args,
	})
}

// AcquireLane reserves the smallest free lane number for a unit of
// concurrent work (one sweep point, one workload's prelude). Using lanes
// instead of goroutine/worker ids keeps the pools of concurrent callers
// from colliding on the same track. Returns 0 on a nil tracer.
func (t *Tracer) AcquireLane() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, used := range t.inUse {
		if !used {
			t.inUse[i] = true
			return i + 1 // lane 0 is the top-level/driver track
		}
	}
	t.inUse = append(t.inUse, true)
	return len(t.inUse)
}

// ReleaseLane returns a lane from AcquireLane to the free pool.
func (t *Tracer) ReleaseLane(lane int) {
	if t == nil || lane <= 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if i := lane - 1; i < len(t.inUse) {
		t.inUse[i] = false
	}
}

// Close terminates the JSON document and returns the first error
// encountered while writing the trace (including the closing bytes).
// Events recorded after Close are dropped, not errors.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return t.err
	}
	t.write([]byte("\n]}\n"))
	t.closed = true
	return t.err
}
