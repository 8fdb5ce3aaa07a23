// Package service is the job engine behind the ntcsimd daemon: it
// accepts experiment submissions, runs them asynchronously on a bounded
// worker pool through the uniform experiments API, streams per-job
// progress events, caches finished results content-addressed by
// experiments.Key, and drains gracefully on shutdown.
//
// The engine is deliberately HTTP-agnostic at its core — Submit, Cancel,
// Status and Drain are plain methods — with the HTTP surface layered on
// top in http.go, so tests can drive the state machine directly and the
// daemon binary stays a thin main.
package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"ntcsim/internal/core"
	"ntcsim/internal/experiments"
	"ntcsim/internal/obs"
	"ntcsim/internal/obs/timeseries"
)

// Sentinel errors the HTTP layer maps onto status codes.
var (
	ErrDraining  = errors.New("service: draining, not accepting jobs")
	ErrQueueFull = errors.New("service: job queue is full")
	ErrNotFound  = errors.New("service: no such job")
	ErrFinished  = errors.New("service: job already finished")
)

// Config sizes the job engine. The zero value is usable: two workers, a
// 64-deep queue, a five-second drain grace.
type Config struct {
	// Workers is the number of jobs run concurrently.
	Workers int
	// Jobs is the per-job sweep worker budget (experiments.Env.Jobs);
	// <= 0 lets each sweep use GOMAXPROCS. Total simulation parallelism
	// is therefore Workers x Jobs.
	Jobs int
	// QueueDepth bounds how many submitted jobs may wait for a worker;
	// submissions beyond it fail with ErrQueueFull rather than queueing
	// without bound.
	QueueDepth int
	// Grace is how long Drain waits for running jobs to finish before
	// canceling them.
	Grace time.Duration
	// Obs receives the service's own metrics (submissions, cache hits,
	// outcomes); nil allocates a private registry.
	Obs *obs.Registry
}

// Server is the job engine. Create with New, serve its Handler, stop
// with Drain.
type Server struct {
	cfg Config
	reg *obs.Registry
	// memo shares finished sweeps across jobs (core.SweepMemo). Its
	// hit/miss/entry counts reach only the service's own metrics, never
	// a job's registry, so each job's artifacts stay a pure function of
	// (experiment, params).
	memo *core.SweepMemo

	// ctx is the root every job context derives from. It is detached
	// from any request or signal context on purpose: SIGTERM must start
	// a graceful drain (grace-period included), not instantly cancel
	// every running job.
	ctx    context.Context
	cancel context.CancelCauseFunc

	queue  chan *job
	wg     sync.WaitGroup // worker goroutines
	active sync.WaitGroup // jobs handed to the queue, not yet settled

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string // submission order, for listing
	cache    map[string]map[string][]byte
	nextID   uint64
	draining bool
}

// New builds the engine and starts its workers.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.Grace <= 0 {
		cfg.Grace = 5 * time.Second
	}
	if cfg.Obs == nil {
		cfg.Obs = obs.NewRegistry()
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	s := &Server{
		cfg:    cfg,
		reg:    cfg.Obs,
		memo:   core.NewSweepMemo(),
		ctx:    ctx,
		cancel: cancel,
		queue:  make(chan *job, cfg.QueueDepth),
		jobs:   map[string]*job{},
		cache:  map[string]map[string][]byte{},
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Submit validates and enqueues one experiment run. When the result
// cache already holds the (experiment, params) key, the returned job is
// born done with the cached artifacts and nothing is recomputed.
func (s *Server) Submit(experiment string, p experiments.Params) (Status, error) {
	if _, ok := experiments.Lookup(experiment); !ok {
		return Status{}, fmt.Errorf("service: unknown experiment %q (have %v)", experiment, experiments.Names())
	}
	if err := p.Validate(); err != nil {
		return Status{}, err
	}
	np := p.Normalized()
	key := experiments.Key(experiment, np)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return Status{}, ErrDraining
	}
	s.nextID++
	j := &job{
		id:         fmt.Sprintf("j%d", s.nextID),
		experiment: experiment,
		params:     np,
		key:        key,
		state:      StateQueued,
		changed:    make(chan struct{}),
		events:     []Event{{Type: "state", State: StateQueued}},
	}
	s.reg.Counter("service/jobs_submitted").Add(1)
	if arts, hit := s.cache[key]; hit {
		j.cached = true
		j.state = StateDone
		j.artifacts = arts
		j.events = append(j.events, Event{Type: "state", State: StateDone})
		s.reg.Counter("service/cache_hits").Add(1)
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
		return j.status(), nil
	}
	// Add before the job becomes visible to a worker: run's deferred
	// Done must never race ahead of the Add.
	s.active.Add(1)
	select {
	case s.queue <- j:
	default:
		s.active.Done()
		return Status{}, ErrQueueFull
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	return j.status(), nil
}

// Status returns the current snapshot of job id.
func (s *Server) Status(id string) (Status, error) {
	j, ok := s.job(id)
	if !ok {
		return Status{}, ErrNotFound
	}
	return j.status(), nil
}

// List returns every job's snapshot in submission order.
func (s *Server) List() []Status {
	s.mu.Lock()
	order := append([]string(nil), s.order...)
	jobs := make([]*job, len(order))
	for i, id := range order {
		jobs[i] = s.jobs[id]
	}
	s.mu.Unlock()
	out := make([]Status, len(jobs))
	for i, j := range jobs {
		out[i] = j.status()
	}
	return out
}

// Cancel requests cancellation of job id. A queued job settles as
// canceled immediately; a running job is canceled through its context
// and settles once the experiment observes it — the returned Status may
// therefore still say running. ErrFinished when the job already
// settled.
func (s *Server) Cancel(id string) (Status, error) {
	j, ok := s.job(id)
	if !ok {
		return Status{}, ErrNotFound
	}
	j.mu.Lock()
	switch {
	case j.state == StateQueued:
		j.state = StateCanceled
		j.errMsg = "canceled before start"
		j.append(Event{Type: "state", State: StateCanceled, Error: j.errMsg})
		j.mu.Unlock()
	case j.state == StateRunning:
		cancel := j.cancel
		j.mu.Unlock()
		cancel(errors.New("service: canceled by request"))
	default:
		j.mu.Unlock()
		return j.status(), ErrFinished
	}
	return j.status(), nil
}

// job looks up a job by id.
func (s *Server) job(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// worker pulls jobs off the queue until the engine shuts down.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.ctx.Done():
			return
		case j := <-s.queue:
			s.run(j)
		}
	}
}

// run executes one job through the experiments API, capturing the
// report, metrics and telemetry artifacts and feeding sweep progress
// into the job's event stream. Only a job that finishes and passes the
// telemetry conservation audit is cached; one that fails the audit keeps
// its telemetry as its only artifact.
func (s *Server) run(j *job) {
	defer s.active.Done()
	jctx, cancel := context.WithCancelCause(s.ctx)
	defer cancel(nil)
	if !j.start(cancel) {
		// Canceled while queued; nothing ran.
		s.reg.Counter("service/jobs_canceled").Add(1)
		return
	}

	var buf bytes.Buffer
	reg := obs.NewRegistry()
	sampler := timeseries.NewSampler()
	_, err := experiments.Run(jctx, j.experiment, j.params, experiments.Env{
		// Drivers that fan out across goroutines require an ordered
		// writer, exactly as in cmd/ntcsim.
		Out: obs.NewSyncWriter(&buf),
		Seams: core.Seams{
			Jobs:      s.cfg.Jobs,
			Obs:       reg,
			Telemetry: sampler,
			Progress:  obs.NewProgressFunc(j.progress),
			Memo:      s.memo,
		},
	})
	if err != nil {
		if jctx.Err() != nil {
			j.finish(StateCanceled, context.Cause(jctx).Error(), nil)
			s.reg.Counter("service/jobs_canceled").Add(1)
		} else {
			j.finish(StateFailed, err.Error(), nil)
			s.reg.Counter("service/jobs_failed").Add(1)
		}
		return
	}
	var tbuf bytes.Buffer
	terr := sampler.WriteCSV(&tbuf)
	// The energy-conservation audit ntcsim -telemetry applies: a job
	// whose ledger drifts from its reported totals fails and is not
	// cached. Its telemetry, which shows the component that drifted,
	// stays available, as ntcsim -telemetry writes the CSV before the
	// audit.
	if err := sampler.Audit(0); err != nil {
		var evidence map[string][]byte
		if terr == nil {
			evidence = map[string][]byte{"telemetry": tbuf.Bytes()}
		}
		j.finish(StateFailed, err.Error(), evidence)
		s.reg.Counter("service/jobs_failed").Add(1)
		return
	}

	arts := map[string][]byte{
		"report": append([]byte(nil), buf.Bytes()...),
	}
	var mbuf bytes.Buffer
	if merr := reg.WriteJSON(&mbuf); merr == nil {
		arts["metrics"] = mbuf.Bytes()
	}
	if terr == nil {
		arts["telemetry"] = tbuf.Bytes()
	}
	s.mu.Lock()
	s.cache[j.key] = arts
	s.mu.Unlock()
	j.finish(StateDone, "", arts)
	s.reg.Counter("service/jobs_done").Add(1)
}

// metrics returns the service's own metrics registry with the sweep
// memo's current hit, miss and entry counts published as the
// service/sweep_memo_* gauges.
func (s *Server) metrics() *obs.Registry {
	hits, misses, entries := s.memo.Stats()
	s.reg.Gauge("service/sweep_memo_hits").Set(float64(hits))
	s.reg.Gauge("service/sweep_memo_misses").Set(float64(misses))
	s.reg.Gauge("service/sweep_memo_entries").Set(float64(entries))
	return s.reg
}

// Drain shuts the engine down gracefully: stop accepting submissions,
// cancel everything still queued, give running jobs the configured
// grace to finish, then cancel them and wait for the workers to exit.
// The passed context is the hard deadline on the whole drain.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()

	// Jobs still waiting in the queue are canceled without running; the
	// queue is private and Submit is closed, so an empty read means
	// empty for good.
	for drained := false; !drained; {
		select {
		case j := <-s.queue:
			j.forceCancel("service: draining")
			s.reg.Counter("service/jobs_canceled").Add(1)
			s.active.Done()
		default:
			drained = true
		}
	}

	// Grace window for running jobs.
	idle := make(chan struct{})
	go func() {
		s.active.Wait()
		close(idle)
	}()
	timer := time.NewTimer(s.cfg.Grace)
	defer timer.Stop()
	select {
	case <-idle:
	case <-timer.C:
		s.cancel(errors.New("service: drain grace elapsed"))
	case <-ctx.Done():
		s.cancel(context.Cause(ctx))
	}

	// Stop the workers (idempotent when the grace path already
	// canceled) and wait for in-flight jobs to settle.
	s.cancel(errors.New("service: drained"))
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		<-idle
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return context.Cause(ctx)
	}
}
