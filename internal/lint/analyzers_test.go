package lint_test

import (
	"go/token"
	"testing"

	"golang.org/x/tools/go/analysis"

	"ntcsim/internal/lint"
	"ntcsim/internal/lint/linttest"
)

// setFlag points an analyzer flag at fixture-local values for one test
// and restores the production default afterwards.
func setFlag(t *testing.T, a *analysis.Analyzer, name, value string) {
	t.Helper()
	f := a.Flags.Lookup(name)
	if f == nil {
		t.Fatalf("analyzer %s has no flag %q", a.Name, name)
	}
	old := f.Value.String()
	if err := f.Value.Set(value); err != nil {
		t.Fatalf("setting %s.%s: %v", a.Name, name, err)
	}
	t.Cleanup(func() { _ = f.Value.Set(old) })
}

func TestWallclock(t *testing.T) {
	setFlag(t, lint.WallclockAnalyzer, "allow", "wcallowed")
	linttest.Run(t, "testdata", lint.WallclockAnalyzer, "wcflag", "wcallowed")
}

func TestGlobalrand(t *testing.T) {
	setFlag(t, lint.GlobalrandAnalyzer, "allow", "grallowed")
	linttest.Run(t, "testdata", lint.GlobalrandAnalyzer, "grflag", "grallowed")
}

func TestMaprange(t *testing.T) {
	setFlag(t, lint.MaprangeAnalyzer, "packages", "mrdet")
	linttest.Run(t, "testdata", lint.MaprangeAnalyzer, "mrdet", "mrfree")
}

func TestPanicmsg(t *testing.T) {
	linttest.Run(t, "testdata", lint.PanicmsgAnalyzer, "pmsg")
}

func TestObsgate(t *testing.T) {
	setFlag(t, lint.ObsgateAnalyzer, "obspkg", "obspkg")
	linttest.Run(t, "testdata", lint.ObsgateAnalyzer, "obsuse", "obspkg", "obspkg/ts")
}

func TestUnits(t *testing.T) {
	setFlag(t, lint.UnitsAnalyzer, "packages", "unitsbad,unitsok,unitsallowed")
	linttest.Run(t, "testdata", lint.UnitsAnalyzer, "unitsbad", "unitsok", "unitsallowed")
}

func TestFloatorder(t *testing.T) {
	setFlag(t, lint.FloatorderAnalyzer, "parallelpkg", "fopar")
	linttest.Run(t, "testdata", lint.FloatorderAnalyzer, "fobad", "fook", "foallowed", "fopar")
}

func TestSnapshotcheck(t *testing.T) {
	setFlag(t, lint.SnapshotcheckAnalyzer, "packages", "snapbad,snapok,snapallowed")
	linttest.Run(t, "testdata", lint.SnapshotcheckAnalyzer, "snapbad", "snapok", "snapallowed")
}

// TestSnapshotcheckDefaults runs the analyzer with its production flags
// over fixtures at the import paths of the cluster checkpoint and each
// component it clones, so dropping one of them from the default package
// list fails here.
func TestSnapshotcheckDefaults(t *testing.T) {
	linttest.Run(t, "testdata", lint.SnapshotcheckAnalyzer, "ntcsim/internal/sim",
		"ntcsim/internal/cpu", "ntcsim/internal/cache", "ntcsim/internal/dram",
		"ntcsim/internal/uncore", "ntcsim/internal/workload")
}

func TestCtxloop(t *testing.T) {
	setFlag(t, lint.CtxloopAnalyzer, "packages", "ctxbad,ctxok,ctxallowed")
	linttest.Run(t, "testdata", lint.CtxloopAnalyzer, "ctxbad", "ctxok", "ctxallowed")
}

// TestRepoIsClean is the lint gate as a Go test: the full module must
// carry zero unannotated violations with the production configuration.
// It runs the same standalone driver as `ntclint`, so `go test ./...`
// alone — without make — still enforces the determinism invariants.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	root, modpath, err := lint.FindModule(".")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := lint.LintModule(root, modpath, lint.Analyzers()...)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// TestDedupe checks the standalone driver's cross-variant dedup: the
// same (position, analyzer, message) triple survives once, and the
// result is globally position-sorted.
func TestDedupe(t *testing.T) {
	d1 := lint.Diagnostic{
		Pos:      token.Position{Filename: "b.go", Line: 10, Column: 3},
		Analyzer: "units",
		Message:  "mismatch",
	}
	d2 := lint.Diagnostic{
		Pos:      token.Position{Filename: "a.go", Line: 2, Column: 1},
		Analyzer: "ctxloop",
		Message:  "unbounded",
	}
	// Same position as d1 but a different analyzer: NOT a duplicate.
	d3 := lint.Diagnostic{
		Pos:      token.Position{Filename: "b.go", Line: 10, Column: 3},
		Analyzer: "wallclock",
		Message:  "clock read",
	}
	got := lint.Dedupe([]lint.Diagnostic{d1, d2, d1, d3, d2})
	if len(got) != 3 {
		t.Fatalf("got %d diagnostics, want 3: %v", len(got), got)
	}
	if got[0] != d2 || got[1] != d1 || got[2] != d3 {
		t.Fatalf("wrong order/content after dedupe: %v", got)
	}
}
