// Package lint is ntcsim's static-analysis suite: nine
// golang.org/x/tools/go/analysis analyzers that turn the simulator's
// determinism and instrumentation conventions into compiler-checked
// rules. The conventions exist because the project's headline guarantee
// — sweep results and counter-class metrics are byte-identical at any
// -jobs value — is only as strong as its weakest code path:
//
//   - wallclock: wall-clock reads (time.Now, time.Since, time.Tick, …)
//     are timing-class and must stay confined to the observability
//     layers; a clock read on a simulation path silently couples output
//     to the host.
//   - globalrand: all randomness must flow through internal/rng
//     substreams (rng.Stream.Split); the global math/rand state is
//     shared across goroutines and crypto/rand is non-reproducible by
//     design.
//   - maprange: Go map iteration order is deliberately randomized, so a
//     range over a map on a deterministic package's path is a latent
//     reproducibility bug unless the keys are sorted first.
//   - panicmsg: guard-clause panics must carry a "pkg: message" string
//     so a panic in a 40-minute sweep names its layer; bare panic(err)
//     loses that context.
//   - obsgate: instrumented layers talk to internal/obs through its
//     nil-receiver-safe methods and constructors, never by building obs
//     values structurally — that pattern is what keeps the disabled
//     path byte-for-byte identical to the seed.
//
// Four flow-aware analyzers extend the suite past single-statement
// syntax:
//
//   - units: physical quantities carry their unit in the identifier
//     (powerW, energyJ, FreqHz, …Ns) or their type (time.Duration is
//     nanoseconds); additions, assignments, returns and comparisons must
//     combine like with like, and W·s / W·ns / W÷Hz derive J / nJ / J.
//   - floatorder: float accumulation reachable from parallel.ForEach
//     callbacks or harvest/merge reducers is order-dependent and breaks
//     byte-identical-at-any-jobs; counters use int64 fixed point.
//   - snapshotcheck: a Clone/clone method that copies its receiver whole
//     must still name every reference-typed field (one that does not
//     must name every field), so a slice or pointer added later cannot
//     end up silently shared between a checkpoint and its restores.
//   - ctxloop: unbounded loops in context-accepting functions under the
//     sweep/worker packages must observe ctx.Done()/ctx.Err().
//
// Every analyzer shares one escape hatch:
//
//	//ntclint:allow <analyzer> <reason>
//
// suppresses that analyzer's diagnostics on the line it trails, or, on a
// line by itself, on the line below. The reason is
// mandatory — an annotation without one is itself reported — so every
// exemption documents why the invariant holds anyway.
//
// The suite runs via cmd/ntclint; `make lint` wires it into the tier-1
// gate.
package lint

import (
	"go/ast"
	"go/token"
	"strconv"
	"strings"

	"golang.org/x/tools/go/analysis"
)

// Analyzers returns the full ntclint suite in reporting order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		WallclockAnalyzer,
		GlobalrandAnalyzer,
		MaprangeAnalyzer,
		PanicmsgAnalyzer,
		ObsgateAnalyzer,
		UnitsAnalyzer,
		FloatorderAnalyzer,
		SnapshotcheckAnalyzer,
		CtxloopAnalyzer,
	}
}

// eachNonTestFile invokes fn for every non-test file of the pass. The
// analyzers walk syntax directly (ast.Inspect) rather than through the
// x/tools inspect pass so the suite has no inter-analyzer dependencies:
// the loader in driver.go runs each analyzer in isolation.
func eachNonTestFile(pass *analysis.Pass, fn func(f *ast.File)) {
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f) {
			continue
		}
		fn(f)
	}
}

// isTestFile reports whether the file is a _test.go file; ntclint
// invariants govern simulation code, and tests legitimately read clocks
// and build fixtures structurally.
func isTestFile(fset *token.FileSet, f *ast.File) bool {
	return strings.HasSuffix(fset.Position(f.Pos()).Filename, "_test.go")
}

// pkgPath returns the pass's package path normalized for matching: the
// go command labels in-package test units "path [path.test]", and the
// allowlists should treat those as the base package.
func pkgPath(pass *analysis.Pass) string {
	p := pass.Pkg.Path()
	if i := strings.IndexByte(p, ' '); i >= 0 {
		p = p[:i]
	}
	return p
}

// pathMatches reports whether pkg equals one of the comma-separated
// prefixes or lives below one (prefix "a/b" matches "a/b" and
// "a/b/c", never "a/bc").
func pathMatches(pkg, prefixes string) bool {
	for _, p := range strings.Split(prefixes, ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		if pkg == p || strings.HasPrefix(pkg, p+"/") {
			return true
		}
	}
	return false
}

// allowDirective is the magic comment prefix of the escape hatch.
const allowDirective = "ntclint:allow"

// allowIndex records, per analyzer, the lines on which diagnostics are
// suppressed by //ntclint:allow comments. A comment on line L covers
// diagnostics on L; one alone on its line (an annotation above the
// statement) also covers L+1, while one trailing code covers L only.
type allowIndex struct {
	fset  *token.FileSet
	lines map[string]map[int]bool // filename -> line -> allowed
}

// newAllowIndex scans the pass's comments for //ntclint:allow <name>
// directives. Directives naming this analyzer but missing the mandatory
// reason are reported as violations themselves: an undocumented
// exemption is a convention leak, not an escape hatch.
func newAllowIndex(pass *analysis.Pass, name string) *allowIndex {
	ai := &allowIndex{fset: pass.Fset, lines: map[string]map[int]bool{}}
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, allowDirective) {
					continue
				}
				fields := strings.Fields(strings.TrimPrefix(text, allowDirective))
				if len(fields) == 0 || fields[0] != name {
					continue
				}
				// A "reason" that opens another comment marker is no
				// reason at all (e.g. a bare directive followed by an
				// unrelated trailing comment).
				if len(fields) < 2 || strings.HasPrefix(fields[1], "//") {
					pass.Reportf(c.Pos(),
						"ntclint:allow %s needs a reason: //ntclint:allow %s <why the invariant holds here>",
						name, name)
					continue
				}
				pos := ai.fset.Position(c.Pos())
				m := ai.lines[pos.Filename]
				if m == nil {
					m = map[int]bool{}
					ai.lines[pos.Filename] = m
				}
				m[pos.Line] = true
				if ownLine(pass, c) {
					m[pos.Line+1] = true
				}
			}
		}
	}
	return ai
}

// ownLine reports whether only whitespace precedes comment c on its line.
// An unreadable source counts as code before it, the narrower exemption.
func ownLine(pass *analysis.Pass, c *ast.Comment) bool {
	tf := pass.Fset.File(c.Pos())
	src, err := pass.ReadFile(tf.Name())
	if err != nil {
		return false
	}
	start, end := tf.Offset(tf.LineStart(tf.Line(c.Pos()))), tf.Offset(c.Pos())
	return end <= len(src) && strings.TrimSpace(string(src[start:end])) == ""
}

// allowed reports whether a diagnostic at pos is suppressed.
func (ai *allowIndex) allowed(pos token.Pos) bool {
	p := ai.fset.Position(pos)
	return ai.lines[p.Filename][p.Line]
}

// stringPrefix extracts the leading compile-time string content of an
// expression, looking through string concatenation (leftmost operand)
// and fmt.Sprintf/fmt.Errorf (format literal). ok is false when no
// literal prefix is recoverable.
func stringPrefix(e ast.Expr) (s string, ok bool) {
	switch e := e.(type) {
	case *ast.BasicLit:
		if e.Kind != token.STRING {
			return "", false
		}
		u, err := strconv.Unquote(e.Value)
		if err != nil {
			return "", false
		}
		return u, true
	case *ast.BinaryExpr:
		if e.Op != token.ADD {
			return "", false
		}
		return stringPrefix(e.X)
	case *ast.ParenExpr:
		return stringPrefix(e.X)
	case *ast.CallExpr:
		if sel, _ := e.Fun.(*ast.SelectorExpr); sel != nil {
			if id, _ := sel.X.(*ast.Ident); id != nil && id.Name == "fmt" &&
				(sel.Sel.Name == "Sprintf" || sel.Sel.Name == "Errorf") &&
				len(e.Args) > 0 {
				return stringPrefix(e.Args[0])
			}
		}
	}
	return "", false
}
