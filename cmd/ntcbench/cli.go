package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
)

// runCLI measures one ntcsim command. Set-up is exec to exit of
// `ntcsim table1`, the cheapest command: process start and package
// initialisation. Each repetition is a fresh process, so nothing cached
// in memory carries from one to the next. With traced set, one traced
// repetition follows and its per-layer metrics are returned.
func (b *bench) runCLI(ctx context.Context, experiment string, traced bool, o *outcome) map[string]float64 {
	setup, err := b.newCheck("table1")
	if err != nil {
		o.op(err)
		return nil
	}
	for i := 0; i < setupSamples; i++ {
		out, c, err := b.ntcsim(ctx, "table1")
		if err == nil {
			o.setup = append(o.setup, c.wall.Seconds())
			err = setup.check(out)
		}
		o.op(err)
	}

	check, err := b.newCheck(experiment)
	if err != nil {
		o.op(err)
		return nil
	}
	b.repeat(ctx, o, func() {
		out, c, err := b.ntcsim(ctx, experiment)
		if err == nil {
			cpu, rss := c.usage()
			o.rep(c.wall, cpu, rss)
			err = check.check(out)
		}
		o.op(err)
	})
	if !traced {
		return nil
	}
	d, err := b.tracedCLI(ctx, experiment, check)
	o.op(err)
	if err != nil {
		return nil
	}
	d.overheadPct = 100 * (d.spans.cmdS/median(o.wall) - 1)
	return d.metrics()
}

// idleTicks is the CPU time, in clock ticks, below which a one-second
// profile window counts as idle: the traced command has finished and
// ntcsim is blocked writing its metrics.
const idleTicks = 5

// fSetPipeSize is Linux's F_SETPIPE_SZ fcntl command.
const fSetPipeSize = 1031

// tracedCLI runs one repetition with every observability output of
// ntcsim on: -trace (spans), -metrics (counters and pool timings),
// -pprof (CPU profile) and GODEBUG=gctrace=1.
//
// The CPU profile comes from net/http/pprof, which profiles a window of
// whole seconds, so the process must outlive the command's last sample.
// The metrics file is therefore a named pipe shrunk to one page: ntcsim
// writes the metrics after the command and blocks once the page is full.
// The harness takes back-to-back one-second profiles until one finds the
// process idle, then reads the pipe, which lets ntcsim finish and exit.
func (b *bench) tracedCLI(ctx context.Context, experiment string, check *reportCheck) (layerData, error) {
	pipePath := filepath.Join(b.work, experiment+".metrics")
	if err := syscall.Mkfifo(pipePath, 0o600); err != nil {
		return layerData{}, fmt.Errorf("creating the metrics pipe: %w", err)
	}
	pipe, err := os.OpenFile(pipePath, os.O_RDONLY|syscall.O_NONBLOCK, 0)
	if err != nil {
		return layerData{}, err
	}
	defer pipe.Close()
	if err := shrinkPipe(pipe); err != nil {
		return layerData{}, err
	}
	tracePath := filepath.Join(b.work, experiment+".trace.json")
	var out bytes.Buffer
	args := append(simArgs, "-metrics", pipePath, "-trace", tracePath, "-pprof", "127.0.0.1:0", experiment)
	c, err := b.start(ctx, "ntcsim", []string{"GODEBUG=gctrace=1"}, &out, args...)
	if err != nil {
		return layerData{}, err
	}
	defer c.kill()

	addr, err := c.await(ctx, "pprof: serving http://")
	if err != nil {
		return layerData{}, err
	}
	addr, _, _ = strings.Cut(addr, "/")
	var profiles []string
	for i := 0; ; i++ {
		before, err := procCPUTicks(c.cmd.Process.Pid)
		if err != nil {
			return layerData{}, errors.Join(err, c.wait())
		}
		file := filepath.Join(b.work, fmt.Sprintf("%s.cpu%03d.pb.gz", experiment, i))
		if err := fetch(ctx, "http://"+addr+"/debug/pprof/profile?seconds=1", file); err != nil {
			return layerData{}, errors.Join(err, c.wait())
		}
		profiles = append(profiles, file)
		after, err := procCPUTicks(c.cmd.Process.Pid)
		if err != nil {
			return layerData{}, errors.Join(err, c.wait())
		}
		if after-before < idleTicks {
			break
		}
	}
	data, err := io.ReadAll(pipe) // ends when ntcsim closes its end
	if err = errors.Join(err, c.wait()); err != nil {
		return layerData{}, err
	}
	if err := check.check(out.Bytes()); err != nil {
		return layerData{}, fmt.Errorf("traced run: %w", err)
	}

	d := layerData{}
	if err := json.Unmarshal(data, &d.reg); err != nil {
		return layerData{}, fmt.Errorf("reading ntcsim metrics: %w", err)
	}
	if d.spans, err = readSpans(tracePath); err != nil {
		return layerData{}, err
	}
	prof, err := loadProfile(ctx, profiles)
	if err != nil {
		return layerData{}, err
	}
	d.prof = &prof
	lines, _ := c.stderr.snapshot()
	d.gcCycles, d.heapPeakMB = gcStats(lines)
	return d, nil
}

// fetch GETs url into file.
func fetch(ctx context.Context, url, file string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	f, err := os.Create(file)
	if err != nil {
		return err
	}
	_, err = io.Copy(f, resp.Body)
	return errors.Join(err, f.Close())
}

// shrinkPipe sets a named pipe's buffer to one page, the smallest Linux
// allows.
func shrinkPipe(f *os.File) error {
	rc, err := f.SyscallConn()
	if err != nil {
		return err
	}
	var errno syscall.Errno
	if err := rc.Control(func(fd uintptr) {
		_, _, errno = syscall.Syscall(syscall.SYS_FCNTL, fd, fSetPipeSize, uintptr(os.Getpagesize()))
	}); err != nil {
		return err
	}
	if errno != 0 {
		return fmt.Errorf("shrinking the metrics pipe: %w", errno)
	}
	return nil
}
