package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"ntcsim/internal/experiments"
)

// maxBodyBytes bounds a submission body; params are a handful of
// scalars, so anything larger is abuse.
const maxBodyBytes = 1 << 20

// Handler returns the daemon's HTTP surface:
//
//	POST   /v1/jobs             submit an experiment          -> 201 Status
//	GET    /v1/jobs             list jobs                     -> 200 []Status
//	GET    /v1/jobs/{id}        job status                    -> 200 Status
//	GET    /v1/jobs/{id}/events progress stream               -> 200 SSE
//	GET    /v1/jobs/{id}/result artifact (?artifact=report)   -> 200 bytes
//	                            (a job that failed its energy audit
//	                            serves ?artifact=telemetry only)
//	DELETE /v1/jobs/{id}        cancel                        -> 202 Status
//	GET    /v1/experiments      registered experiments        -> 200 list
//	GET    /healthz             liveness/readiness            -> 200 | 503
//	GET    /metrics             service metrics               -> 200 JSON
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	return mux
}

// writeJSON writes v as the JSON response body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // headers are out; nothing left to do
}

// writeErr writes the uniform error body.
func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// submitRequest is the POST /v1/jobs body. Params stays raw so the
// strict experiments decoder owns its validation.
type submitRequest struct {
	Experiment string          `json:"experiment"`
	Params     json.RawMessage `json:"params"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	var req submitRequest
	if err := dec.Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if dec.More() {
		writeErr(w, http.StatusBadRequest, "trailing data after the request object")
		return
	}
	if req.Experiment == "" {
		writeErr(w, http.StatusBadRequest, "missing experiment name (have %v)", experiments.Names())
		return
	}
	p, err := experiments.UnmarshalParams(req.Params)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	st, err := s.Submit(req.Experiment, p)
	switch {
	case err == nil:
	case errors.Is(err, ErrDraining), errors.Is(err, ErrQueueFull):
		writeErr(w, http.StatusServiceUnavailable, "%v", err)
		return
	default:
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+st.ID)
	writeJSON(w, http.StatusCreated, st)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.List())
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, err := s.Status(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, err := s.Cancel(r.PathValue("id"))
	switch {
	case errors.Is(err, ErrNotFound):
		writeErr(w, http.StatusNotFound, "%v", err)
	case errors.Is(err, ErrFinished):
		writeErr(w, http.StatusConflict, "%v: state %s", err, st.State)
	default:
		writeJSON(w, http.StatusAccepted, st)
	}
}

// artifactContentTypes maps artifact names to their media types.
var artifactContentTypes = map[string]string{
	"report":    "text/plain; charset=utf-8",
	"metrics":   "application/json",
	"telemetry": "text/csv",
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "%v", ErrNotFound)
		return
	}
	name := r.URL.Query().Get("artifact")
	if name == "" {
		name = "report"
	}
	data, state, ok := j.artifact(name)
	switch {
	case ok:
		// A done job holds every artifact; a job that failed its energy
		// audit holds only the telemetry that shows why.
	case state != StateDone:
		// Not-yet-done and never-will-be-done both refuse: a result
		// only exists for a job that settled as done.
		writeErr(w, http.StatusConflict, "job %s has no result: state %s", j.id, state)
		return
	default:
		writeErr(w, http.StatusNotFound, "no artifact %q (have report, metrics, telemetry)", name)
		return
	}
	w.Header().Set("Content-Type", artifactContentTypes[name])
	w.WriteHeader(http.StatusOK)
	w.Write(data) //nolint:errcheck // client gone; nothing left to do
}

// handleEvents streams the job's event log as server-sent events: the
// full history replays first, then live events until the job settles or
// the client disconnects. Every event is `event: <type>` with a JSON
// `data:` payload.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "%v", ErrNotFound)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	for i := 0; ; {
		evs, changed, terminal := j.watch(i)
		for _, ev := range evs {
			data, err := json.Marshal(ev)
			if err != nil {
				return
			}
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, data)
		}
		if len(evs) > 0 {
			i += len(evs)
			fl.Flush()
		}
		if terminal {
			// The log is complete: nothing follows a terminal event.
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-changed:
		}
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		writeErr(w, http.StatusServiceUnavailable, "draining")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	s.metrics().WriteJSON(w) //nolint:errcheck // headers are out; nothing left to do
}

// experimentInfo is one row of GET /v1/experiments.
type experimentInfo struct {
	Name  string `json:"name"`
	Title string `json:"title"`
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	var out []experimentInfo
	for _, name := range experiments.Names() {
		spec, _ := experiments.Lookup(name)
		out = append(out, experimentInfo{Name: spec.Name, Title: spec.Title})
	}
	writeJSON(w, http.StatusOK, out)
}
