package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
	"time"
)

// declared finds a metric in a declaration list.
func declared(ms []metric, name string) (metric, bool) {
	for _, m := range ms {
		if m.name == name {
			return m, true
		}
	}
	return metric{}, false
}

// benchmarkJSON is the repository's BENCHMARK.json.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloads) {
		t.Errorf("BENCHMARK.json workloads %v, harness runs %v", names, workloads)
	}
	type decl struct{ name, unit, better string }
	var e2e, layers []decl
	maxBound := 0.0
	for _, m := range bj.EndToEnd {
		e2e = append(e2e, decl{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
	}
	for _, m := range bj.EndToEnd {
		if m.Name == "setup_s" && m.Bound != maxBound {
			t.Errorf("setup_s bound %v is not the largest (%v)", m.Bound, maxBound)
		}
	}
	for _, m := range bj.PerLayer {
		layers = append(layers, decl{m.Name, m.Unit, m.Better})
	}
	for _, tc := range []struct {
		what    string
		json    []decl
		harness []metric
	}{{"end_to_end", e2e, endToEnd}, {"per_layer", layers, perLayer}} {
		if len(tc.json) != len(tc.harness) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the harness %d", tc.what, len(tc.json), len(tc.harness))
			continue
		}
		for i, m := range tc.harness {
			if want := (decl{m.name, m.unit, m.better}); tc.json[i] != want {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, harness %+v", tc.what, i, tc.json[i], want)
			}
		}
	}
}

// TestEmitsExactlyTheDeclaredMetrics checks the harness's own output:
// every declared metric is emitted, and nothing else.
func TestEmitsExactlyTheDeclaredMetrics(t *testing.T) {
	o := &outcome{}
	o.rep(time.Second, 2*time.Second, 30)
	o.setup = []float64{0.003}
	checkKeys(t, "end-to-end", o.endToEnd(), endToEnd)

	full := layerData{prof: &profile{total: time.Second}}
	checkKeys(t, "per-layer", full.metrics(), perLayer)

	// Without a profile (daemon-session) the harness emits a subset, and
	// withUnits fills the rest with zeros under their declared units.
	for name := range (layerData{}).metrics() {
		if _, ok := declared(perLayer, name); !ok {
			t.Errorf("undeclared per-layer metric %s", name)
		}
	}
	for name, v := range withUnits(perLayer, (layerData{}).metrics()) {
		if m, _ := declared(perLayer, name); v.Unit != m.unit {
			t.Errorf("%s emitted in %s, declared in %s", name, v.Unit, m.unit)
		}
	}
}

func checkKeys(t *testing.T, what string, got map[string]float64, decl []metric) {
	t.Helper()
	var have, want []string
	for name := range got {
		have = append(have, name)
	}
	for _, m := range decl {
		want = append(want, m.name)
	}
	slices.Sort(have)
	slices.Sort(want)
	if !slices.Equal(have, want) {
		t.Errorf("%s metrics emitted %v, declared %v", what, have, want)
	}
}
