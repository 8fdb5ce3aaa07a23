package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
)

// compareMain implements `ntcbench compare A.jsonl B.jsonl`: A is the
// reference (the parent commit, or the first set of an A/A pair), B the
// candidate. Both are files of records appended by -out. It prints, per
// end-to-end metric and workload, each side's median and quartiles over
// its runs and a verdict, then checks that every counter-class layer
// metric repeats exactly between runs of the same workload and seed. It
// exits 1 on a regression, a counter mismatch or an incorrect run.
func compareMain(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("ntcbench compare", flag.ContinueOnError)
	decl := fs.String("benchmark", "BENCHMARK.json", "benchmark declaration holding the regression bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: ntcbench compare [-benchmark BENCHMARK.json] A.jsonl B.jsonl")
		return 2
	}
	bounds, err := readBounds(*decl)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ntcbench compare:", err)
		return 2
	}
	var sides [2][]record
	for i := range sides {
		if sides[i], err = readRecords(fs.Arg(i)); err != nil {
			fmt.Fprintln(os.Stderr, "ntcbench compare:", err)
			return 2
		}
	}
	if !compare(w, bounds, sides[0], sides[1]) {
		return 1
	}
	return 0
}

// readBounds returns the end-to-end regression bounds of a BENCHMARK.json.
func readBounds(path string) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var decl struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	bounds := map[string]float64{}
	for _, m := range decl.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds, nil
}

// readRecords reads a file of records, one JSON object per line.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// compare prints the comparison of sets a and b and reports whether it
// found neither a regression, a counter mismatch nor an incorrect run.
func compare(w io.Writer, bounds map[string]float64, a, b []record) bool {
	ok := true
	for _, side := range [][]record{a, b} {
		for _, r := range side {
			if !r.Correct {
				fmt.Fprintf(w, "incorrect run: %s seed %d: %d of %d operations failed\n", r.Workload, r.Seed, r.Failed, r.Attempted)
				ok = false
			}
		}
	}
	fmt.Fprintf(w, "%-12s %-15s %-36s %-36s %8s  %s\n", "metric", "workload", "A median [q1, q3] (n)", "B median [q1, q3] (n)", "change", "verdict")
	for _, m := range endToEnd {
		for _, wl := range workloads {
			av, bv := metricValues(a, wl, m.name), metricValues(b, wl, m.name)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			v := judge(m, bounds[m.name], av, bv)
			if v == "regression" {
				ok = false
			}
			ma, mb := median(av), median(bv)
			fmt.Fprintf(w, "%-12s %-15s %-36s %-36s %+7.2f%%  %s\n", m.name, wl, summary(av), summary(bv), 100*(mb-ma)/ma, v)
		}
	}
	compared, mismatches := compareCounters(a, b)
	for _, msg := range mismatches {
		fmt.Fprintln(w, "counter mismatch:", msg)
	}
	fmt.Fprintf(w, "counter-class layer metrics: %d compared, %d differ\n", compared, len(mismatches))
	return ok && len(mismatches) == 0
}

// metricValues returns one value per run of workload wl: the run's
// median of the metric, in record order.
func metricValues(recs []record, wl, name string) []float64 {
	var vs []float64
	for _, r := range recs {
		if v, ok := r.Metrics[name]; ok && r.Workload == wl {
			vs = append(vs, v.Value)
		}
	}
	return vs
}

func summary(xs []float64) string {
	q1, q2, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", q2, q1, q3, len(xs))
}

// judge compares a metric's runs on one workload, a (reference) against
// b (candidate). A worsening of the median by more than the allowed
// amount — bound times a's median, but never less than the metric's
// absolute floor — is a regression. When either side's interquartile
// range exceeds the allowed amount the medians cannot be trusted, and the
// verdict is "unresolved" unless every run of one side beats every run of
// the other. A gain needs paired runs (a[i] against b[i], run
// alternately): b must win at least nine in ten of at least ten pairs,
// ties counting for neither, and its median must beat a's by more than
// a's interquartile range.
func judge(m metric, bound float64, a, b []float64) string {
	ma, mb := median(a), median(b)
	allowed := max(bound*math.Abs(ma), m.floor)
	better := func(x, y float64) bool { // x reads better than y
		if m.better == "higher" {
			return x > y
		}
		return x < y
	}
	worsening := mb - ma
	if m.better == "higher" {
		worsening = -worsening
	}
	wide := iqr(a) > allowed || iqr(b) > allowed
	if wide && !beatsAll(b, a, better) && !beatsAll(a, b, better) {
		return "unresolved"
	}
	if worsening > allowed {
		return "regression"
	}
	pairs, wins := min(len(a), len(b)), 0
	for i := 0; i < pairs; i++ {
		if better(b[i], a[i]) {
			wins++
		}
	}
	if pairs >= 10 && 10*wins >= 9*pairs && -worsening > iqr(a) {
		return "gain"
	}
	return "ok"
}

// beatsAll reports whether every value of xs reads better than every
// value of ys.
func beatsAll(xs, ys []float64, better func(x, y float64) bool) bool {
	for _, x := range xs {
		for _, y := range ys {
			if !better(x, y) {
				return false
			}
		}
	}
	return true
}

// compareCounters checks every counter-class layer metric between traced
// runs of the same workload and seed in a and b.
func compareCounters(a, b []record) (compared int, mismatches []string) {
	type key struct {
		workload string
		seed     uint64
	}
	ref := map[key]map[string]value{}
	for _, r := range a {
		if r.Layers != nil {
			ref[key{r.Workload, r.Seed}] = r.Layers
		}
	}
	for _, r := range b {
		want, ok := ref[key{r.Workload, r.Seed}]
		if !ok || r.Layers == nil {
			continue
		}
		for _, m := range perLayer {
			if !m.counter {
				continue
			}
			compared++
			if got := r.Layers[m.name].Value; got != want[m.name].Value {
				mismatches = append(mismatches, fmt.Sprintf("%s seed %d %s: %v, want %v", r.Workload, r.Seed, m.name, got, want[m.name].Value))
			}
		}
	}
	return compared, mismatches
}
