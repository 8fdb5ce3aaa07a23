package lint

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
)

// obsgatePkgDefault is the observability package whose types are gated.
// Matching is by pathMatches, so subpackages (internal/obs/timeseries —
// the telemetry sampler hooks) fall under the same gate.
const obsgatePkgDefault = "ntcsim/internal/obs"

// obsgateExemptDefault lists obs types that are plain data carriers:
// snapshots are exported state for callers to read field-by-field, and
// constructing them structurally is exactly their contract. The
// timeseries Sample/Ledger carriers are what producers hand to
// Series.Record, and SeriesSnapshot is the expvar export.
const obsgateExemptDefault = "Snapshot,HistogramSnapshot,TimingSnapshot," +
	"Sample,Ledger,SeriesSnapshot"

// ObsgateAnalyzer requires instrumentation call sites outside
// internal/obs (and its subpackages, notably obs/timeseries) to go
// through the nil-receiver-safe method pattern:
// obs.Counter/Gauge/Histogram/Timing/Registry and the telemetry
// Sampler/Series values are obtained from constructors (NewRegistry,
// NewHistogram, NewSampler, Registry/Series methods) and touched only
// through methods, every one of which is a no-op on nil. That
// pattern is what lets instrumented layers hold a nil metric pointer
// when observability is off and keep the disabled hot path
// byte-for-byte identical to the seed. Structural access — composite
// literals or direct field reads/writes — bypasses the nil gate and
// (for Registry and Histogram) builds unusable zero values.
var ObsgateAnalyzer = &analysis.Analyzer{
	Name: "obsgate",
	Doc: "require nil-receiver-safe method access to obs types outside internal/obs\n\n" +
		"Outside the obs package, metric values come from constructors/Registry methods\n" +
		"and are touched only through their nil-safe methods. Composite literals of\n" +
		"obs struct types and direct field access bypass the nil gate that keeps the\n" +
		"observability-off hot path identical to the seed.",
	Run: runObsgate,
}

func init() {
	ObsgateAnalyzer.Flags.String("obspkg", obsgatePkgDefault,
		"import path of the gated observability package")
	ObsgateAnalyzer.Flags.String("exempt", obsgateExemptDefault,
		"comma-separated obs type names exempt from the gate (plain data carriers)")
}

func runObsgate(pass *analysis.Pass) (interface{}, error) {
	obspkg := pass.Analyzer.Flags.Lookup("obspkg").Value.String()
	exempt := pass.Analyzer.Flags.Lookup("exempt").Value.String()
	if p := pkgPath(pass); p == obspkg || pathMatches(p, obspkg) {
		return nil, nil
	}
	gated := func(t types.Type) (string, bool) {
		if ptr, ok := t.Underlying().(*types.Pointer); ok {
			t = ptr.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok {
			return "", false
		}
		obj := named.Obj()
		if obj.Pkg() == nil || !pathMatches(obj.Pkg().Path(), obspkg) {
			return "", false
		}
		if _, isStruct := named.Underlying().(*types.Struct); !isStruct {
			return "", false
		}
		if pathMatches(obj.Name(), exempt) {
			return "", false
		}
		return obj.Name(), true
	}
	ai := newAllowIndex(pass, pass.Analyzer.Name)
	eachNonTestFile(pass, func(f *ast.File) {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				t := pass.TypesInfo.TypeOf(n)
				if t == nil {
					return true
				}
				name, hit := gated(t)
				if !hit || ai.allowed(n.Pos()) {
					return true
				}
				pass.Reportf(n.Pos(),
					"composite literal of obs.%s outside internal/obs: construct via "+
						"the obs constructors/Registry methods so the nil-receiver-safe "+
						"instrumentation pattern holds",
					name)
			case *ast.SelectorExpr:
				sel := pass.TypesInfo.Selections[n]
				if sel == nil || sel.Kind() != types.FieldVal {
					return true
				}
				name, hit := gated(sel.Recv())
				if !hit || ai.allowed(n.Pos()) {
					return true
				}
				pass.Reportf(n.Pos(),
					"direct field access on obs.%s outside internal/obs: go through "+
						"its nil-receiver-safe methods so disabled-path call sites "+
						"stay nil-gated",
					name)
			}
			return true
		})
	})
	return nil, nil
}
