// Package experiments is the uniform experiment API behind every ntcsim
// frontend. Each figure/table/analysis driver that historically lived in
// cmd/ntcsim's switch statement is registered here under one context-first
// signature:
//
//	experiments.Run(ctx, name, Params, Env) (Result, error)
//
// Params is a validated, JSON-round-trippable parameter struct — the CLI
// fills it from flags, the ntcsimd daemon decodes it strictly from request
// bodies — and Env carries the output writer plus the result-neutral
// explorer seams (core.Seams: worker budget, sweep memo, observability
// hooks) so the same driver runs identically as a one-shot command or as
// an asynchronous job. The
// report text an experiment writes to Env.Out is a pure function of
// (name, Params): the golden files pin it, and the daemon's result cache
// is keyed on exactly that pair (see Key).
package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"text/tabwriter"

	"ntcsim/internal/core"
)

// DefaultSeed is the simulation seed used when Params.Seed is zero — the
// same default the CLI has always exposed as -seed.
const DefaultSeed uint64 = 0x5eed

// Version is the experiment-API generation, folded into every cache key so
// results computed by an older incompatible API are never served for a new
// one. Bump it when a change makes previously cached report bytes wrong.
const Version = "ntcsim-experiments/v7"

// Env is what an experiment runs against besides its Params: the report
// writer and the explorer seams (core.Seams), which every explorer the
// experiment constructs receives whole. Every field is optional: a zero
// Env runs the experiment silently (output discarded) on default knobs,
// which is what the validation tests use.
type Env struct {
	// Out receives the experiment's report text; nil discards it. Callers
	// that fan drivers across goroutines should pass an ordered writer
	// (obs.NewSyncWriter) exactly as cmd/ntcsim does.
	Out io.Writer
	core.Seams

	// served, when non-nil, holds the serve-grid results already run under
	// this Env (see serveReport). runAll sets it, so the scenario both
	// diurnal-day views share runs, records and publishes once.
	served serveRuns
}

// out returns the report writer, never nil.
func (env Env) out() io.Writer {
	if env.Out == nil {
		return io.Discard
	}
	return env.Out
}

// tbl returns the standard report table writer over the Env output.
func (env Env) tbl() *tabwriter.Writer {
	return tabwriter.NewWriter(env.out(), 2, 4, 2, ' ', 0)
}

// Params is the experiment parameter set. One struct serves every
// experiment: the knobs are the global simulation inputs (fidelity, seed)
// plus the explicit accuracy/speed overrides the golden and smoke
// harnesses need. All fields participate in the JSON round trip and in
// the content-address key; unknown JSON fields are rejected (see
// UnmarshalParams).
type Params struct {
	// Fidelity selects the sampling configuration: "quick" (default) or
	// "paper" for the full SMARTS windows.
	Fidelity string `json:"fidelity,omitempty"`
	// Seed is the simulation seed; 0 selects DefaultSeed.
	Seed uint64 `json:"seed,omitempty"`
	// WarmInstr, when non-zero, overrides the per-core functional warmup
	// instruction count of the selected fidelity.
	WarmInstr uint64 `json:"warm_instr,omitempty"`
	// SettleCycles, when non-zero, overrides the settle window after the
	// warm-up.
	SettleCycles int64 `json:"settle_cycles,omitempty"`
}

// Hard ceilings on the override knobs: large enough for any legitimate
// request (the paper fidelity warms 8M instructions), small enough that a
// hostile request cannot turn one job into an unbounded compute sink.
const (
	maxWarmInstr    = 1_000_000_000
	maxSettleCycles = 1_000_000_000
)

// ParamError is the typed validation failure for one Params field, so
// frontends can map it to a 400 with the offending field named.
type ParamError struct {
	Field  string
	Reason string
}

func (e *ParamError) Error() string {
	return fmt.Sprintf("experiments: invalid params: %s: %s", e.Field, e.Reason)
}

// Validate rejects hostile or meaningless parameter values with a typed
// *ParamError naming the field.
func (p Params) Validate() error {
	switch p.Fidelity {
	case "", "quick", "paper":
	default:
		return &ParamError{Field: "fidelity", Reason: fmt.Sprintf("unknown fidelity %q (want quick or paper)", p.Fidelity)}
	}
	if p.WarmInstr > maxWarmInstr {
		return &ParamError{Field: "warm_instr", Reason: fmt.Sprintf("%d exceeds the %d ceiling", p.WarmInstr, maxWarmInstr)}
	}
	if p.SettleCycles < 0 {
		return &ParamError{Field: "settle_cycles", Reason: "negative settle window"}
	}
	if p.SettleCycles > maxSettleCycles {
		return &ParamError{Field: "settle_cycles", Reason: fmt.Sprintf("%d exceeds the %d ceiling", p.SettleCycles, maxSettleCycles)}
	}
	return nil
}

// Normalized returns the canonical form of p: defaults made explicit so
// that two requests meaning the same run produce the same struct — and
// therefore the same cache key.
func (p Params) Normalized() Params {
	if p.Fidelity == "" {
		p.Fidelity = "quick"
	}
	if p.Seed == 0 {
		p.Seed = DefaultSeed
	}
	return p
}

// UnmarshalParams decodes params from JSON strictly: unknown fields are an
// error (so a typo like "sede" fails loudly instead of silently running
// the default), and so is trailing garbage after the object.
func UnmarshalParams(data []byte) (Params, error) {
	if len(bytes.TrimSpace(data)) == 0 {
		return Params{}, nil
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var p Params
	if err := dec.Decode(&p); err != nil {
		return Params{}, &ParamError{Field: "params", Reason: err.Error()}
	}
	if dec.More() {
		return Params{}, &ParamError{Field: "params", Reason: "trailing data after the params object"}
	}
	return p, nil
}

// NewExplorer constructs the explorer an experiment sweeps with: Params
// supplies the simulation inputs, Env the seams. It is the single
// construction path shared by every registered driver, so the CLI and the
// daemon cannot drift apart. p must already be validated (Run does so).
// Zero WarmInstr/SettleCycles keep the fidelity's defaults; non-zero ones
// override them.
func (p Params) NewExplorer(env Env) *core.Explorer {
	e := core.NewExplorer()
	e.Seams = env.Seams
	e.Platform.Cluster.Seed = p.Normalized().Seed
	if p.Fidelity == "paper" {
		e.PaperFidelity()
	}
	if p.WarmInstr > 0 {
		e.WarmInstr = p.WarmInstr
	}
	if p.SettleCycles > 0 {
		e.SettleCycles = p.SettleCycles
	}
	return e
}

// RunFunc is the uniform driver signature. The passed Params are already
// validated and normalized; the driver writes its report to env.Out and
// must stop between units of work when ctx is cancelled.
type RunFunc func(ctx context.Context, p Params, env Env) error

// Spec describes one registered experiment.
type Spec struct {
	// Name is the stable identifier (the CLI subcommand and the daemon's
	// "experiment" request field).
	Name string
	// Title is the one-line human description shown in listings.
	Title string
	// Run executes the experiment.
	Run RunFunc
}

// registry holds the built-in experiments, registered at package init.
// Lookup order never matters (Names sorts), so a plain map suffices.
var registry = map[string]Spec{}

// Register adds an experiment; duplicate or anonymous registrations are
// programming errors and panic at init time.
func Register(s Spec) {
	if s.Name == "" || s.Run == nil {
		panic("experiments: Register: empty name or nil run")
	}
	if _, dup := registry[s.Name]; dup {
		panic("experiments: Register: duplicate experiment " + s.Name)
	}
	registry[s.Name] = s
}

// Lookup returns the spec registered under name.
func Lookup(name string) (Spec, bool) {
	s, ok := registry[name]
	return s, ok
}

// Names returns every registered experiment name in sorted order.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry { //ntclint:allow maprange sorted immediately below
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Result summarizes a completed run: which experiment, the normalized
// parameters it actually ran with, and the content-address key the result
// cache files it under.
type Result struct {
	Experiment string `json:"experiment"`
	Params     Params `json:"params"`
	Key        string `json:"key"`
}

// Run validates and normalizes the parameters, resolves the experiment and
// executes it. The report text lands on env.Out; the returned Result
// carries the cache key for the (name, params) pair that ran.
func Run(ctx context.Context, name string, p Params, env Env) (Result, error) {
	spec, ok := Lookup(name)
	if !ok {
		return Result{}, fmt.Errorf("experiments: unknown experiment %q (have %v)", name, Names())
	}
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	np := p.Normalized()
	if err := ctx.Err(); err != nil {
		return Result{}, context.Cause(ctx)
	}
	if err := spec.Run(ctx, np, env); err != nil {
		return Result{}, err
	}
	return Result{Experiment: name, Params: np, Key: Key(name, np)}, nil
}

// Key content-addresses a result: FNV-1a over the API version, the
// experiment name and the canonical JSON of the normalized parameters
// (which folds in the seed). Two submissions with the same key are the
// same computation, so a daemon may serve the cached bytes of one for the
// other; Env (the output writer and core.Seams) is deliberately excluded
// because it never changes the report bytes.
func Key(name string, p Params) string {
	blob, err := json.Marshal(p.Normalized())
	if err != nil {
		// Params is a plain struct of scalars; Marshal cannot fail on it.
		panic("experiments: Key: " + err.Error())
	}
	h := fnv.New64a()
	io.WriteString(h, Version)
	h.Write([]byte{0})
	io.WriteString(h, name)
	h.Write([]byte{0})
	h.Write(blob)
	return fmt.Sprintf("%016x", h.Sum64())
}
