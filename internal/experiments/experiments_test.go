package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

// TestParamsValidate covers the typed rejection of each hostile field.
func TestParamsValidate(t *testing.T) {
	cases := []struct {
		name  string
		p     Params
		field string // "" = valid
	}{
		{"zero", Params{}, ""},
		{"quick", Params{Fidelity: "quick"}, ""},
		{"paper", Params{Fidelity: "paper"}, ""},
		{"overrides", Params{WarmInstr: 200_000, SettleCycles: 10_000}, ""},
		{"bad fidelity", Params{Fidelity: "bogus"}, "fidelity"},
		{"warm ceiling", Params{WarmInstr: maxWarmInstr + 1}, "warm_instr"},
		{"negative settle", Params{SettleCycles: -1}, "settle_cycles"},
		{"settle ceiling", Params{SettleCycles: maxSettleCycles + 1}, "settle_cycles"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.p.Validate()
			if tc.field == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			var pe *ParamError
			if !errors.As(err, &pe) {
				t.Fatalf("Validate() = %v, want *ParamError", err)
			}
			if pe.Field != tc.field {
				t.Fatalf("ParamError.Field = %q, want %q", pe.Field, tc.field)
			}
		})
	}
}

// TestParamsNormalized: defaults become explicit, explicit values survive.
func TestParamsNormalized(t *testing.T) {
	n := Params{}.Normalized()
	if n.Fidelity != "quick" || n.Seed != DefaultSeed {
		t.Fatalf("zero Params normalized to %+v", n)
	}
	p := Params{Fidelity: "paper", Seed: 7, WarmInstr: 5, SettleCycles: 9}
	if got := p.Normalized(); got != p {
		t.Fatalf("explicit Params changed by Normalized: %+v -> %+v", p, got)
	}
}

// TestParamsJSONRoundTrip: params survive marshal/unmarshal byte-exactly,
// which the cache key depends on.
func TestParamsJSONRoundTrip(t *testing.T) {
	p := Params{Fidelity: "paper", Seed: 42, WarmInstr: 1000, SettleCycles: 2000}
	blob, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalParams(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got != p {
		t.Fatalf("round trip changed params: %+v -> %+v", p, got)
	}
}

// TestUnmarshalParamsStrict rejects unknown fields and trailing garbage,
// and treats an empty body as the zero Params.
func TestUnmarshalParamsStrict(t *testing.T) {
	if _, err := UnmarshalParams([]byte(`{"sede": 7}`)); err == nil {
		t.Fatal("typo field must be rejected")
	} else if !strings.Contains(err.Error(), "sede") {
		t.Fatalf("rejection should name the field: %v", err)
	}
	if _, err := UnmarshalParams([]byte(`{"seed": 7} trailing`)); err == nil {
		t.Fatal("trailing garbage must be rejected")
	}
	if _, err := UnmarshalParams([]byte(`{"seed": "seven"}`)); err == nil {
		t.Fatal("wrong type must be rejected")
	}
	for _, empty := range []string{"", "  \n"} {
		p, err := UnmarshalParams([]byte(empty))
		if err != nil || p != (Params{}) {
			t.Fatalf("empty body %q: got %+v, %v", empty, p, err)
		}
	}
}

// TestKey pins the cache-key semantics: normalization-insensitive,
// sensitive to every simulation input, insensitive to nothing else.
func TestKey(t *testing.T) {
	base := Key("fig2", Params{})
	if base != Key("fig2", Params{Fidelity: "quick", Seed: DefaultSeed}) {
		t.Fatal("defaults spelled explicitly must hash identically")
	}
	distinct := map[string]string{
		"name":   Key("fig3", Params{}),
		"seed":   Key("fig2", Params{Seed: 7}),
		"fid":    Key("fig2", Params{Fidelity: "paper"}),
		"warm":   Key("fig2", Params{WarmInstr: 1}),
		"settle": Key("fig2", Params{SettleCycles: 1}),
	}
	seen := map[string]string{base: "base"}
	for what, k := range distinct {
		if prev, dup := seen[k]; dup {
			t.Fatalf("key for %s collides with %s", what, prev)
		}
		seen[k] = what
	}
}

// TestRegistry: the canonical experiments are registered and Names is
// sorted.
func TestRegistry(t *testing.T) {
	for _, name := range []string{"fig1", "table1", "fig2", "fig3", "fig4", "opt",
		"ablation", "variation", "darksilicon", "governor", "serve", "interference",
		"scaling", "workloads", "prefetch", "ports", "hetero", "memory", "all"} {
		if _, ok := Lookup(name); !ok {
			t.Errorf("experiment %q not registered", name)
		}
	}
	names := Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names() not sorted: %v", names)
		}
	}
}

// TestRunErrors: unknown experiments, invalid params and pre-cancelled
// contexts all fail before any simulation happens.
func TestRunErrors(t *testing.T) {
	ctx := context.Background()
	if _, err := Run(ctx, "nope", Params{}, Env{}); err == nil {
		t.Fatal("unknown experiment must error")
	}
	if _, err := Run(ctx, "fig2", Params{Fidelity: "bogus"}, Env{}); err == nil {
		t.Fatal("invalid params must error")
	}
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := Run(cctx, "fig2", Params{}, Env{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ctx: err = %v, want context.Canceled", err)
	}
}

// TestRunCheap executes the sweep-free experiments end to end through the
// uniform API and checks the Result envelope.
func TestRunCheap(t *testing.T) {
	var buf strings.Builder
	res, err := Run(context.Background(), "table1", Params{}, Env{Out: &buf})
	if err != nil {
		t.Fatal(err)
	}
	if res.Experiment != "table1" || res.Key != Key("table1", Params{}) {
		t.Fatalf("result envelope wrong: %+v", res)
	}
	if res.Params.Seed != DefaultSeed || res.Params.Fidelity != "quick" {
		t.Fatalf("result params not normalized: %+v", res.Params)
	}
	if !strings.Contains(buf.String(), "E_IDLE") {
		t.Fatalf("table1 report missing content:\n%s", buf.String())
	}
	// A nil Env.Out must run silently rather than crash.
	if _, err := Run(context.Background(), "fig1", Params{}, Env{}); err != nil {
		t.Fatal(err)
	}
}
