// Command ntcbench is the end-to-end and per-layer benchmark of ntcsim
// and ntcsimd. It builds both programs from the checkout it runs in and
// drives them only through their command lines and HTTP API, as a user
// would:
//
//	bash cmd/ntcbench/run.sh --workload fig2-scaleout --seed 24301 --seconds 20 --trace 0
//	bash cmd/ntcbench/run.sh -seed 24301 -out run.jsonl   # all workloads, untraced then traced
//	bash cmd/ntcbench/run.sh compare A.jsonl B.jsonl
//
// An untraced run repeats its workload, one fresh process per
// repetition, for -seconds and reports the end-to-end metrics as medians
// over the repetitions, scaled by a calibration loop timed between them
// to the baseline host's undisturbed speed (see calibrator). A traced run
// (-trace 1) measures the same way,
// then runs one traced repetition and reports the per-layer metrics
// instead. Every report is checked; the last line of standard output is
// the JSON result. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"
)

const (
	// goldenSeed is the simulation seed of every ntcsim run and cold
	// daemon job: the seed the committed goldens were generated at
	// (experiments.DefaultSeed, 0x5eed), so every report is checked byte
	// for byte. At other seeds the adaptive sampler takes a different
	// number of windows (34 to 46 for serve over seeds 101-110), and run
	// time would move with the seed by more than any useful bound.
	goldenSeed = 24301
	// jobs is the sweep worker budget of every run: the two CPUs the
	// baseline host has.
	jobs = 2
	// minReps is the fewest repetitions a run measures, however short
	// -seconds is, so that every median has a middle.
	minReps = 3
	// setupSamples is how many times a run times set-up.
	setupSamples = 15
	// runTimeout bounds one workload's run after the build.
	runTimeout = 170 * time.Second
	// buildTimeout bounds building ntcsim and ntcsimd from a cold cache;
	// with runTimeout it stays inside the first run's 900 s.
	buildTimeout = 700 * time.Second
)

// workloads are run in this order by a run without -workload.
var workloads = []string{"fig2-scaleout", "fig4-vm", "serve-day", "daemon-session"}

// cliExperiments maps each CLI workload to the ntcsim command it runs.
var cliExperiments = map[string]string{
	"fig2-scaleout": "fig2",
	"fig4-vm":       "fig4",
	"serve-day":     "serve",
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(runMain(os.Args[1:]))
}

// bench is one invocation's environment.
type bench struct {
	root   string        // repository root: holds cmd/ntcsim and its goldens
	bin    string        // directory holding the built ntcsim and ntcsimd
	work   string        // scratch directory, removed when the invocation ends
	seed   uint64        // workload seed: the daemon session's distinct jobs
	window time.Duration // how long untraced repetitions are measured
	cal    *calibrator
}

// value is one metric as printed in a result.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is one run of one workload, as appended to -out.
type record struct {
	Workload  string               `json:"workload"`
	Seed      uint64               `json:"seed"`
	Seconds   int                  `json:"seconds"`
	Trace     bool                 `json:"trace"`
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]value     `json:"metrics"`
	Layers    map[string]value     `json:"layers,omitempty"`
	Samples   map[string][]float64 `json:"samples"`
	Failures  []string             `json:"failures,omitempty"`
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("ntcbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloads, ", ")+"; empty runs every one, untraced then traced")
	seed := fs.Uint64("seed", goldenSeed, "workload seed: picks the daemon session's distinct table1 jobs (ntcsim's own simulation seed stays 24301)")
	seconds := fs.Int("seconds", 20, "seconds over which a run's untraced repetitions are measured")
	trace := fs.Int("trace", 0, "1: also run one traced repetition and print the per-layer metrics instead of the end-to-end ones")
	out := fs.String("out", "", "append each run's record (JSON, one line per run) to this file, the input of `ntcbench compare`")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var names []string
	switch {
	case *name == "":
		names = workloads
	case slices.Contains(workloads, *name):
		names = []string{*name}
	default:
		fmt.Fprintf(os.Stderr, "ntcbench: unknown workload %q (have %s)\n", *name, strings.Join(workloads, ", "))
		return 2
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 || fs.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "ntcbench: want -seconds >= 1, -trace 0 or 1 and no arguments")
		return 2
	}

	b, err := newBench(*seed, time.Duration(*seconds)*time.Second)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ntcbench:", err)
		return 2
	}
	defer os.RemoveAll(b.work)

	ok := true
	for _, n := range names {
		// A run without -workload is the one-command report: every
		// workload, each with its traced repetition.
		traced := *trace == 1 || *name == ""
		ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
		rec := b.run(ctx, n, traced)
		cancel()
		ok = ok && rec.Correct
		for _, f := range rec.Failures {
			fmt.Fprintf(os.Stderr, "ntcbench: %s: %s\n", n, f)
		}
		shown := rec.Metrics
		if *trace == 1 {
			shown = rec.Layers
		}
		if *trace == 0 || *name == "" {
			printMetrics(os.Stdout, n, endToEnd, rec.Metrics)
		}
		printMetrics(os.Stdout, n, perLayer, rec.Layers)
		if *out != "" {
			if err := appendRecord(*out, rec); err != nil {
				fmt.Fprintln(os.Stderr, "ntcbench:", err)
				ok = false
			}
		}
		if *name != "" {
			res, _ := json.Marshal(struct {
				Correct   bool             `json:"correct"`
				Attempted int              `json:"attempted"`
				Failed    int              `json:"failed"`
				Metrics   map[string]value `json:"metrics"`
			}{rec.Correct, rec.Attempted, rec.Failed, shown})
			fmt.Println(string(res))
		}
	}
	if !ok {
		return 1
	}
	return 0
}

// newBench checks that it runs at a repository root, builds ntcsim and
// ntcsimd there and makes the scratch directory.
func newBench(seed uint64, window time.Duration) (*bench, error) {
	root, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(root, "cmd", "ntcsim")); err != nil {
		return nil, fmt.Errorf("run from the repository root (no cmd/ntcsim here): %w", err)
	}
	b := &bench{root: root, bin: filepath.Join(root, ".bench_build", "bin"), seed: seed, window: window, cal: newCalibrator()}
	ctx, cancel := context.WithTimeout(context.Background(), buildTimeout)
	defer cancel()
	if err := build(ctx, root, b.bin); err != nil {
		return nil, err
	}
	work := filepath.Join(root, ".bench_build", "work")
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	if b.work, err = os.MkdirTemp(work, "run"); err != nil {
		return nil, err
	}
	return b, nil
}

// build compiles ntcsim and ntcsimd from the module at root into bin.
func build(ctx context.Context, root, bin string) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin+string(filepath.Separator), "./cmd/ntcsim", "./cmd/ntcsimd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building ntcsim and ntcsimd: %v\n%s", err, out)
	}
	return nil
}

// run measures one workload and checks every output it produced.
func (b *bench) run(ctx context.Context, name string, traced bool) record {
	o := &outcome{}
	var layers map[string]float64
	if exp, ok := cliExperiments[name]; ok {
		layers = b.runCLI(ctx, exp, traced, o)
	} else {
		layers = b.runDaemon(ctx, traced, o)
	}
	rec := record{
		Workload:  name,
		Seed:      b.seed,
		Seconds:   int(b.window.Seconds()),
		Trace:     traced,
		Correct:   o.attempted > 0 && o.failed == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   withUnits(endToEnd, o.endToEnd()),
		// The raw, unscaled samples.
		Samples: map[string][]float64{
			"wall_s": o.wall, "cpu_s": o.cpu, "peak_rss_mb": o.rss, "setup_s": o.setup, "calibration_s": o.cal,
		},
		Failures: o.failures,
	}
	if traced {
		rec.Layers = withUnits(perLayer, layers)
	}
	return rec
}

// outcome accumulates what a run measured. An operation is one program
// run or one HTTP job; it fails when the program errs or any of its
// outputs is wrong.
type outcome struct {
	attempted, failed int
	failures          []string
	wall, cpu, rss    []float64 // per repetition: s, s, MB
	setup             []float64 // per set-up sample, s
	cal               []float64 // per calibration, s
}

// maxFailures caps the failure messages a record keeps.
const maxFailures = 5

func (o *outcome) op(err error) {
	o.attempted++
	if err == nil {
		return
	}
	o.failed++
	if len(o.failures) < maxFailures {
		o.failures = append(o.failures, err.Error())
	}
}

// repeat runs one repetition after another for the run's window, and
// at least minReps times, timing a calibration before each and after the
// last.
func (b *bench) repeat(ctx context.Context, o *outcome, rep func()) {
	start := time.Now()
	for i := 0; (i < minReps || time.Since(start) < b.window) && ctx.Err() == nil; i++ {
		o.cal = append(o.cal, b.cal.run().Seconds())
		rep()
	}
	o.cal = append(o.cal, b.cal.run().Seconds())
}

// rep records one measured repetition.
func (o *outcome) rep(wall, cpu time.Duration, rssMB float64) {
	o.wall = append(o.wall, wall.Seconds())
	o.cpu = append(o.cpu, cpu.Seconds())
	o.rss = append(o.rss, rssMB)
}

// endToEnd returns the end-to-end metrics: medians over the run, the
// times divided by the host's speed. The speed is the calibration's lower
// quartile rather than its median because a calibration is short: a
// burst of contention that a repetition averages over can double it.
func (o *outcome) endToEnd() map[string]float64 {
	speed := 0.0
	if q1, _, _ := quartiles(o.cal); q1 > 0 {
		speed = referenceCalibration.Seconds() / q1
	}
	return map[string]float64{
		"wall_s":      median(o.wall) * speed,
		"cpu_s":       median(o.cpu) * speed,
		"peak_rss_mb": median(o.rss),
		"setup_s":     median(o.setup) * speed,
	}
}

// withUnits attaches the declared unit to each declared metric; a metric
// the run could not measure reads 0.
func withUnits(decl []metric, vals map[string]float64) map[string]value {
	out := make(map[string]value, len(decl))
	for _, m := range decl {
		out[m.name] = value{Value: vals[m.name], Unit: m.unit}
	}
	return out
}

// printMetrics prints one line per declared metric present in vals:
// name, workload, value, unit.
func printMetrics(w io.Writer, workload string, decl []metric, vals map[string]value) {
	for _, m := range decl {
		if v, ok := vals[m.name]; ok {
			fmt.Fprintf(w, "%-32s %-15s %16.10g %s\n", m.name, workload, v.Value, v.Unit)
		}
	}
}

// appendRecord appends rec as one JSON line to path.
func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	_, werr := f.Write(append(line, '\n'))
	return errors.Join(werr, f.Close())
}

// simArgs are the ntcsim flags every run passes: the golden seed,
// warmup and settle knobs.
var simArgs = []string{"-seed", strconv.Itoa(goldenSeed), "-jobs", strconv.Itoa(jobs), "-warm", "200000", "-settle", "10000"}
