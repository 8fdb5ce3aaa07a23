package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// child is a started program whose exit the harness observes.
type child struct {
	cmd    *exec.Cmd
	start  time.Time
	stderr *lineLog
	done   chan struct{} // closed once the process has exited and been waited for
	err    error         // the exit error, valid after done
	wall   time.Duration // exec to exit, valid after done
}

// start runs one of the built programs with args; extraEnv is added to
// the harness's environment. Stdout goes to stdout (nil discards it).
func (b *bench) start(ctx context.Context, program string, extraEnv []string, stdout io.Writer, args ...string) (*child, error) {
	cmd := exec.CommandContext(ctx, filepath.Join(b.bin, program), args...)
	if len(extraEnv) > 0 {
		cmd.Env = append(os.Environ(), extraEnv...)
	}
	c := &child{cmd: cmd, stderr: newLineLog(), done: make(chan struct{})}
	cmd.Stdout, cmd.Stderr = stdout, c.stderr
	c.start = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		c.err = cmd.Wait()
		c.wall = time.Since(c.start)
		close(c.done)
	}()
	return c, nil
}

// wait returns the exit error, naming the program and its last stderr
// line when it failed.
func (c *child) wait() error {
	<-c.done
	if c.err != nil {
		return fmt.Errorf("%s %s: %v: %s", filepath.Base(c.cmd.Path), strings.Join(c.cmd.Args[1:], " "), c.err, c.stderr.last())
	}
	return nil
}

// kill stops the process if it still runs and waits for it.
func (c *child) kill() {
	select {
	case <-c.done:
	default:
		c.cmd.Process.Kill()
		<-c.done
	}
}

// usage returns the exited process's user+system CPU time and its
// maximum resident set in MB.
func (c *child) usage() (cpu time.Duration, rssMB float64) {
	ru, ok := c.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0, 0
	}
	cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return cpu, float64(ru.Maxrss) / 1024 // Linux reports KB
}

// ntcsim runs one ntcsim command and returns its report.
func (b *bench) ntcsim(ctx context.Context, experiment string) ([]byte, *child, error) {
	var out bytes.Buffer
	c, err := b.start(ctx, "ntcsim", nil, &out, append(simArgs, experiment)...)
	if err != nil {
		return nil, nil, err
	}
	err = c.wait()
	return out.Bytes(), c, err
}

// lineLog collects a program's stderr line by line and lets the harness
// wait for a line announcing something, such as a listen address.
type lineLog struct {
	mu      sync.Mutex
	lines   []string
	partial []byte
	changed chan struct{} // closed and replaced whenever a line arrives
}

func newLineLog() *lineLog { return &lineLog{changed: make(chan struct{})} }

func (l *lineLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.partial = append(l.partial, p...)
	added := false
	for {
		i := bytes.IndexByte(l.partial, '\n')
		if i < 0 {
			break
		}
		l.lines = append(l.lines, string(l.partial[:i]))
		l.partial = l.partial[i+1:]
		added = true
	}
	if added {
		close(l.changed)
		l.changed = make(chan struct{})
	}
	return len(p), nil
}

// snapshot returns the complete lines so far and a channel closed when
// the next one arrives.
func (l *lineLog) snapshot() ([]string, <-chan struct{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.lines...), l.changed
}

// last returns the last complete line, for error messages.
func (l *lineLog) last() string {
	lines, _ := l.snapshot()
	for i := len(lines) - 1; i >= 0; i-- {
		if !strings.HasPrefix(lines[i], "gc ") { // skip GODEBUG=gctrace lines
			return lines[i]
		}
	}
	return ""
}

// await waits until c prints a line starting with prefix and returns the
// rest of that line.
func (c *child) await(ctx context.Context, prefix string) (string, error) {
	for {
		lines, changed := c.stderr.snapshot()
		for _, line := range lines {
			if rest, ok := strings.CutPrefix(line, prefix); ok {
				return rest, nil
			}
		}
		select {
		case <-changed:
		case <-c.done:
			return "", fmt.Errorf("%s exited before printing %q: %v: %s", filepath.Base(c.cmd.Path), prefix, c.err, c.stderr.last())
		case <-ctx.Done():
			return "", ctx.Err()
		}
	}
}

// gcStats summarizes GODEBUG=gctrace=1 output: the number of collections
// and the largest heap any of them saw, in MB.
func gcStats(lines []string) (cycles int, heapPeakMB float64) {
	for _, line := range lines {
		if !strings.HasPrefix(line, "gc ") {
			continue
		}
		cycles++
		// "..., 4->5->2 MB, 5 MB goal, ...": heap at start, at end, live.
		for _, f := range strings.Fields(line) {
			if !strings.Contains(f, "->") {
				continue
			}
			for _, n := range strings.Split(f, "->") {
				if mb, err := strconv.ParseFloat(n, 64); err == nil {
					heapPeakMB = max(heapPeakMB, mb)
				}
			}
		}
	}
	return cycles, heapPeakMB
}

// procCPUTicks returns a live process's user+system CPU time in clock
// ticks, from /proc/<pid>/stat.
func procCPUTicks(pid int) (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields after its
	// closing parenthesis start at field 3, so utime (14) and stime (15)
	// are at offsets 11 and 12.
	s := string(data)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	return utime + stime, nil
}

// procRSSMB returns a live process's current resident set in MB.
func procRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmRSS in /proc/%d/status", pid)
}
