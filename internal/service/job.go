package service

import (
	"sort"
	"sync"
	"time"

	"ntcsim/internal/experiments"
)

// State is a job's position in its lifecycle. The machine is strictly
// forward: queued -> running -> (done | failed | canceled), with the
// shortcut queued -> canceled for jobs canceled before a worker picks
// them up and queued -> done for cache hits. Terminal states never
// change.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Event is one entry in a job's append-only event log — the unit the
// SSE endpoint streams. "state" events mark lifecycle transitions;
// "progress" events relay the experiment's sweep-point completions.
type Event struct {
	Type  string  `json:"type"` // "state" or "progress"
	State State   `json:"state,omitempty"`
	Done  int     `json:"done,omitempty"`
	Total int     `json:"total,omitempty"`
	Label string  `json:"label,omitempty"`
	MS    float64 `json:"ms,omitempty"` // the unit's own duration
	Error string  `json:"error,omitempty"`
}

// Status is the wire form of a job's current state, served by the
// status and list endpoints and returned from Submit.
type Status struct {
	ID         string             `json:"id"`
	Experiment string             `json:"experiment"`
	Params     experiments.Params `json:"params"`
	Key        string             `json:"key"`
	State      State              `json:"state"`
	Error      string             `json:"error,omitempty"`
	Cached     bool               `json:"cached,omitempty"`
	Done       int                `json:"progress_done"`
	Total      int                `json:"progress_total"`
	Artifacts  []string           `json:"artifacts,omitempty"`
}

// job is the server-side record of one submitted experiment run.
type job struct {
	// Immutable after creation.
	id         string
	experiment string
	params     experiments.Params // normalized
	key        string

	mu          sync.Mutex
	state       State
	errMsg      string
	cached      bool
	done, total int
	cancel      func(error) // non-nil while running
	events      []Event
	changed     chan struct{} // closed and replaced on every append
	artifacts   map[string][]byte
}

// append adds ev to the event log and wakes every watcher. Callers hold
// j.mu.
func (j *job) append(ev Event) {
	j.events = append(j.events, ev)
	close(j.changed)
	j.changed = make(chan struct{})
}

// watch returns a copy of the events from index i on, the channel the
// next append closes, and whether the job has settled. A watcher that
// has replayed everything and sees terminal=true can stop: no event
// ever follows a terminal state event.
func (j *job) watch(i int) (evs []Event, changed <-chan struct{}, terminal bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if i < len(j.events) {
		evs = append(evs, j.events[i:]...)
	}
	return evs, j.changed, j.state.Terminal()
}

// progress is the obs.NewProgressFunc hook: it relays one completed
// sweep unit into the event log.
func (j *job) progress(done, total int, label string, d time.Duration) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.done, j.total = done, total
	j.append(Event{Type: "progress", Done: done, Total: total, Label: label, MS: float64(d) / 1e6})
}

// start transitions queued -> running and installs the cancel hook.
// It reports false — and the worker must skip the job — when the job
// was canceled while still in the queue.
func (j *job) start(cancel func(error)) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.cancel = cancel
	j.append(Event{Type: "state", State: StateRunning})
	return true
}

// finish settles the job in a terminal state with its artifacts: every
// one for StateDone, the telemetry alone for a job that failed its
// energy audit, nil otherwise.
func (j *job) finish(st State, errMsg string, artifacts map[string][]byte) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.cancel = nil
	j.state = st
	j.errMsg = errMsg
	j.artifacts = artifacts
	j.append(Event{Type: "state", State: st, Error: errMsg})
}

// forceCancel settles a not-yet-running job as canceled; a no-op on any
// other state (running jobs are canceled through their context, and
// terminal states never change).
func (j *job) forceCancel(reason string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return
	}
	j.state = StateCanceled
	j.errMsg = reason
	j.append(Event{Type: "state", State: StateCanceled, Error: reason})
}

// artifact returns one finished artifact by name along with the job's
// current state (so the handler can distinguish not-done from unknown
// artifact).
func (j *job) artifact(name string) (data []byte, st State, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	data, ok = j.artifacts[name]
	return data, j.state, ok
}

// status snapshots the job for the wire.
func (j *job) status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:         j.id,
		Experiment: j.experiment,
		Params:     j.params,
		Key:        j.key,
		State:      j.state,
		Error:      j.errMsg,
		Cached:     j.cached,
		Done:       j.done,
		Total:      j.total,
	}
	for name := range j.artifacts { //ntclint:allow maprange sorted immediately below
		st.Artifacts = append(st.Artifacts, name)
	}
	sort.Strings(st.Artifacts)
	return st
}
