package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"os/exec"
	"strings"
	"time"
)

// profile is a CPU profile aggregated by layer. A layer is an ntcsim
// package (internal/<layer>/...), or math, runtime, or other.
type profile struct {
	total time.Duration
	self  map[string]time.Duration // by the layer of each stack's leaf frame
	cum   map[string]time.Duration // by layer, counted once per stack it appears in
	fnCum map[string]time.Duration // by tracked function, once per stack
}

// trackedFuncs are the hot functions the per-layer metrics follow by
// name, keyed by their metric stem.
var trackedFuncs = map[string]string{
	"rng_geometric":   "ntcsim/internal/rng.(*Stream).Geometric",
	"rng_zipf_next":   "ntcsim/internal/rng.(*Zipf).Next",
	"cpu_step":        "ntcsim/internal/cpu.(*Core).Step",
	"cpu_fastforward": "ntcsim/internal/cpu.(*Core).FastForward",
	"cluster_access":  "ntcsim/internal/sim.(*Cluster).Access",
}

// loadProfile merges the given CPU profiles with `go tool pprof -traces`
// and aggregates the printed stacks.
func loadProfile(ctx context.Context, files []string) (profile, error) {
	var out, errb bytes.Buffer
	cmd := exec.CommandContext(ctx, "go", append([]string{"tool", "pprof", "-traces"}, files...)...)
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return profile{}, fmt.Errorf("go tool pprof: %v: %s", err, errb.Bytes())
	}
	return parseTraces(&out)
}

// parseTraces reads the text of `go tool pprof -traces`: a header, then
// one block per distinct stack, each opened by a dashed separator line.
// A block's first line is the sample value and the leaf frame; the
// following lines are its callers. Inlined frames carry an " (inline)"
// suffix.
func parseTraces(r io.Reader) (profile, error) {
	p := profile{
		self:  map[string]time.Duration{},
		cum:   map[string]time.Duration{},
		fnCum: map[string]time.Duration{},
	}
	var (
		inBlock bool // a separator has been seen
		value   time.Duration
		frames  []string
	)
	flush := func() {
		if len(frames) == 0 {
			return
		}
		p.total += value
		p.self[layerOf(frames[0])] += value
		layers := map[string]bool{}
		fns := map[string]bool{}
		for _, f := range frames {
			layers[layerOf(f)] = true
			for key, name := range trackedFuncs {
				if f == name {
					fns[key] = true
				}
			}
		}
		for l := range layers {
			p.cum[l] += value
		}
		for fn := range fns {
			p.fnCum[fn] += value
		}
		frames = frames[:0]
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "-----------+"):
			flush()
			inBlock = true
		case !inBlock || line == "":
		case len(frames) == 0:
			v, frame, ok := strings.Cut(line, " ")
			if !ok {
				return profile{}, fmt.Errorf("pprof traces: malformed stack head %q", line)
			}
			d, err := time.ParseDuration(v)
			if err != nil {
				return profile{}, fmt.Errorf("pprof traces: sample value: %v", err)
			}
			value = d
			frames = append(frames, frameName(frame))
		default:
			frames = append(frames, frameName(line))
		}
	}
	if err := sc.Err(); err != nil {
		return profile{}, err
	}
	flush()
	if p.total <= 0 {
		return profile{}, fmt.Errorf("pprof traces: no samples")
	}
	return p, nil
}

// frameName strips the inline marker from a printed frame.
func frameName(s string) string {
	return strings.TrimSuffix(strings.TrimSpace(s), " (inline)")
}

// layerOf maps a frame's function name to its layer.
func layerOf(frame string) string {
	if i := strings.IndexByte(frame, '['); i >= 0 {
		frame = frame[:i] // generic instantiation: the package precedes it
	}
	// The package path ends at the first '.' after its last '/'.
	pkg := frame
	slash := strings.LastIndexByte(pkg, '/')
	if dot := strings.IndexByte(pkg[slash+1:], '.'); dot >= 0 {
		pkg = pkg[:slash+1+dot]
	}
	switch {
	case strings.HasPrefix(pkg, "ntcsim/internal/"):
		l, _, _ := strings.Cut(strings.TrimPrefix(pkg, "ntcsim/internal/"), "/")
		return l
	case strings.HasPrefix(pkg, "ntcsim/"):
		return "cmd"
	case pkg == "math" || strings.HasPrefix(pkg, "math/"):
		return "math"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	return "other"
}

// pct returns d as a percentage of the profile's total.
func (p profile) pct(d time.Duration) float64 {
	return 100 * float64(d) / float64(p.total)
}
