package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// The daemon-session script, run by one closed-loop client on one
// connection. coldExperiments run first, each waited for over SSE:
// governor sweeps exactly the web-search points serve sweeps, so the pair
// is the session's cross-job reuse opportunity. cheapJobs distinct
// table1 jobs follow, at seeds after the run's, each followed over SSE
// too (the writes: they grow the job table and the result cache; table1
// computes in microseconds, so their latency is the service's own). Last
// come hits resubmissions of the cold experiments (the reads: each must
// be a cache hit).
var coldExperiments = []string{"serve", "governor"}

const (
	cheapJobs = 40
	hits      = 60
)

// runDaemon measures daemon sessions: start ntcsimd, run the script,
// drain it with SIGTERM. Set-up is exec to the first 200 from /healthz.
// With traced set, one traced session follows and its per-layer metrics
// are returned.
func (b *bench) runDaemon(ctx context.Context, traced bool, o *outcome) map[string]float64 {
	for i := 0; i < setupSamples; i++ {
		d, err := b.startDaemon(ctx, nil)
		if err == nil {
			o.setup = append(o.setup, d.ready.Seconds())
			err = d.stop()
		}
		o.op(err)
	}

	checks := map[string]*reportCheck{}
	for _, exp := range append([]string{"table1"}, coldExperiments...) {
		c, err := b.newCheck(exp)
		if err != nil {
			o.op(err)
			return nil
		}
		checks[exp] = c
	}
	b.repeat(ctx, o, func() {
		d, err := b.startDaemon(ctx, nil)
		if err != nil {
			o.op(err)
			return
		}
		if _, err := b.session(ctx, d, checks, o, false); err == nil {
			cpu, rss := d.usage()
			o.rep(d.wall, cpu, rss)
		}
	})
	if !traced {
		return nil
	}
	d, err := b.startDaemon(ctx, []string{"GODEBUG=gctrace=1"})
	if err != nil {
		o.op(err)
		return nil
	}
	ld, err := b.session(ctx, d, checks, o, true)
	if err != nil {
		return nil
	}
	ld.overheadPct = 100 * (d.wall.Seconds()/median(o.wall) - 1)
	return ld.metrics()
}

// daemon is a running ntcsimd and the client talking to it.
type daemon struct {
	*child
	base   string
	ready  time.Duration // exec to the first 200 from /healthz
	client *http.Client
}

// startDaemon starts ntcsimd on a kernel-assigned port and waits until it
// answers /healthz.
func (b *bench) startDaemon(ctx context.Context, extraEnv []string) (*daemon, error) {
	c, err := b.start(ctx, "ntcsimd", extraEnv, nil,
		"-listen", "127.0.0.1:0", "-workers", "1", "-jobs", strconv.Itoa(jobs))
	if err != nil {
		return nil, err
	}
	addr, err := c.await(ctx, "ntcsimd: listening on ")
	if err != nil {
		c.kill()
		return nil, err
	}
	d := &daemon{child: c, base: "http://" + addr, client: &http.Client{
		// One connection, reused for every request of the session.
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}}
	// The listener is bound before the address is printed, so the first
	// probe normally succeeds; retry briefly in case it races the server.
	for deadline := time.Now().Add(10 * time.Second); ; {
		_, err := d.get(ctx, "/healthz")
		if err == nil {
			break
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			c.kill()
			return nil, fmt.Errorf("ntcsimd never became healthy: %w", err)
		}
		time.Sleep(time.Millisecond)
	}
	d.ready = time.Since(c.start)
	return d, nil
}

// stop drains the daemon with SIGTERM and waits for a clean exit.
func (d *daemon) stop() error {
	defer d.client.CloseIdleConnections()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return err
	}
	return d.wait()
}

// session runs the script against d and stops d. Every job and hit is
// one operation of o. A traced session also collects the per-layer data.
func (b *bench) session(ctx context.Context, d *daemon, checks map[string]*reportCheck, o *outcome, traced bool) (layerData, error) {
	defer d.kill()
	var ld layerData
	failed := 0
	op := func(err error) {
		o.op(err)
		if err != nil {
			failed++
		}
	}

	coldIDs := map[string]string{}
	reports := map[string][]byte{}
	for _, exp := range coldExperiments {
		id, rep, evs, _, err := d.coldJob(ctx, exp, goldenSeed)
		if err == nil {
			err = checks[exp].check(rep)
		}
		op(err)
		coldIDs[exp], reports[exp] = id, rep
		sweeps := map[string]bool{}
		for _, ev := range evs {
			if ev.Type == "progress" {
				ld.spans.pointMS = append(ld.spans.pointMS, ev.MS)
				workload, _, _ := strings.Cut(ev.Label, " @ ")
				sweeps[workload] = true
			}
		}
		ld.spans.sweeps += len(sweeps)
	}
	for i := 1; i <= cheapJobs; i++ {
		_, rep, _, ms, err := d.coldJob(ctx, "table1", b.seed+uint64(i))
		if err == nil {
			err = checks["table1"].check(rep)
		}
		op(err)
		ld.coldMS = append(ld.coldMS, ms)
	}
	for i := 0; i < hits; i++ {
		exp := coldExperiments[i%len(coldExperiments)]
		ms, err := d.hit(ctx, exp, goldenSeed, reports[exp])
		op(err)
		ld.hitMS = append(ld.hitMS, ms)
	}

	if traced {
		op(d.collect(ctx, coldIDs, &ld))
	}
	op(d.stop())
	if failed > 0 {
		return layerData{}, fmt.Errorf("%d operations failed", failed)
	}
	return ld, nil
}

// collect reads the per-layer data a traced session exposes: the
// service's own counters, the retained job table, the resident set, the
// cold jobs' metrics artifacts and the GC trace.
func (d *daemon) collect(ctx context.Context, coldIDs map[string]string, ld *layerData) error {
	var svc registry
	body, err := d.get(ctx, "/metrics")
	if err == nil {
		err = json.Unmarshal(body, &svc)
	}
	if err != nil {
		return fmt.Errorf("reading /metrics: %w", err)
	}
	ld.service = svc.Counters
	var jobs []json.RawMessage
	if body, err = d.get(ctx, "/v1/jobs"); err == nil {
		err = json.Unmarshal(body, &jobs)
	}
	if err != nil {
		return fmt.Errorf("listing jobs: %w", err)
	}
	ld.retained = len(jobs)
	if ld.rssEndMB, err = procRSSMB(d.cmd.Process.Pid); err != nil {
		return err
	}
	for _, exp := range coldExperiments {
		var r registry
		body, err := d.get(ctx, "/v1/jobs/"+coldIDs[exp]+"/result?artifact=metrics")
		if err == nil {
			err = json.Unmarshal(body, &r)
		}
		if err != nil {
			return fmt.Errorf("reading the %s metrics artifact: %w", exp, err)
		}
		ld.reg.add(r)
	}
	lines, _ := d.stderr.snapshot()
	ld.gcCycles, ld.heapPeakMB = gcStats(lines)
	return nil
}

// jobStatus is the part of the daemon's job status the client reads.
type jobStatus struct {
	ID     string `json:"id"`
	State  string `json:"state"`
	Cached bool   `json:"cached"`
}

// jobEvent is one server-sent event of a job's stream.
type jobEvent struct {
	Type  string  `json:"type"`
	State string  `json:"state"`
	Label string  `json:"label"`
	MS    float64 `json:"ms"`
	Error string  `json:"error"`
}

// coldJob submits an experiment that must not be cached, follows its
// event stream to the end and downloads the report. It returns the job
// id, the report, the events and the milliseconds from submit to the
// last report byte.
func (d *daemon) coldJob(ctx context.Context, exp string, seed uint64) (string, []byte, []jobEvent, float64, error) {
	t0 := time.Now()
	st, err := d.submit(ctx, exp, seed)
	if err != nil {
		return "", nil, nil, 0, err
	}
	if st.Cached {
		return "", nil, nil, 0, fmt.Errorf("first %s job at seed %d was served from the cache", exp, seed)
	}
	evs, err := d.events(ctx, st.ID)
	if err != nil {
		return "", nil, nil, 0, err
	}
	if n := len(evs); n == 0 || evs[n-1].State != "done" {
		return "", nil, nil, 0, fmt.Errorf("%s job %s did not settle as done: %d events, %+v", exp, st.ID, n, evs[max(0, n-1):])
	}
	rep, err := d.get(ctx, "/v1/jobs/"+st.ID+"/result")
	return st.ID, rep, evs, msSince(t0), err
}

// hit resubmits a finished experiment, which must be answered from the
// result cache with the same bytes, and returns the milliseconds from
// submit to the last result byte.
func (d *daemon) hit(ctx context.Context, exp string, seed uint64, want []byte) (float64, error) {
	t0 := time.Now()
	st, err := d.submit(ctx, exp, seed)
	if err != nil {
		return 0, err
	}
	if !st.Cached || st.State != "done" {
		return 0, fmt.Errorf("resubmitted %s was not a cache hit (state %s)", exp, st.State)
	}
	rep, err := d.get(ctx, "/v1/jobs/"+st.ID+"/result")
	ms := msSince(t0)
	if err == nil && !bytes.Equal(rep, want) {
		err = fmt.Errorf("cached %s report differs from the computed one: %s", exp, firstDiff(want, rep))
	}
	return ms, err
}

func (d *daemon) submit(ctx context.Context, exp string, seed uint64) (jobStatus, error) {
	body := fmt.Sprintf(`{"experiment":%q,"params":{"seed":%d,"warm_instr":200000,"settle_cycles":10000}}`, exp, seed)
	resp, err := d.do(ctx, http.MethodPost, "/v1/jobs", strings.NewReader(body))
	if err != nil {
		return jobStatus{}, err
	}
	var st jobStatus
	if resp.StatusCode != http.StatusCreated {
		return jobStatus{}, fmt.Errorf("submitting %s: %s: %s", exp, resp.Status, resp.body)
	}
	if err := json.Unmarshal(resp.body, &st); err != nil {
		return jobStatus{}, fmt.Errorf("submitting %s: %w", exp, err)
	}
	return st, nil
}

// events reads a job's SSE stream until the daemon closes it after the
// terminal state.
func (d *daemon) events(ctx context.Context, id string) ([]jobEvent, error) {
	resp, err := d.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("events of %s: %s", id, resp.Status)
	}
	var evs []jobEvent
	sc := bufio.NewScanner(bytes.NewReader(resp.body))
	for sc.Scan() {
		if data, ok := strings.CutPrefix(sc.Text(), "data: "); ok {
			var ev jobEvent
			if err := json.Unmarshal([]byte(data), &ev); err != nil {
				return nil, fmt.Errorf("events of %s: %w", id, err)
			}
			evs = append(evs, ev)
		}
	}
	return evs, sc.Err()
}

// get GETs path and requires 200.
func (d *daemon) get(ctx context.Context, path string) ([]byte, error) {
	resp, err := d.do(ctx, http.MethodGet, path, nil)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", path, resp.Status, resp.body)
	}
	return resp.body, nil
}

// response is a fully read HTTP response.
type response struct {
	*http.Response
	body []byte
}

// do sends one request and reads the whole body, so the connection is
// free for the next request.
func (d *daemon) do(ctx context.Context, method, path string, body io.Reader) (response, error) {
	req, err := http.NewRequestWithContext(ctx, method, d.base+path, body)
	if err != nil {
		return response{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return response{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return response{}, errors.Join(fmt.Errorf("%s %s", method, path), err)
	}
	return response{resp, data}, nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }
