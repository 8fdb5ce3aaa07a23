package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"

	"golang.org/x/tools/go/analysis"
)

// floatorderParallelDefault is the fan-out package whose callbacks run
// concurrently: any function handed to it may execute its iterations in
// worker order, not index order.
const floatorderParallelDefault = "ntcsim/internal/parallel"

// floatorderRootsDefault matches merge/harvest-style function names —
// the single-threaded reduction points where per-worker partial results
// are folded together. Accumulation order there depends on completion
// order unless the caller sorts first, so they are held to the same
// rule as the parallel callbacks themselves.
const floatorderRootsDefault = `(?i)^(harvest|merge)`

// FloatorderAnalyzer flags order-dependent floating-point accumulation
// (x += e, x -= e, x = x + e, x = x - e on float32/float64) in any
// function reachable — through same-package calls — from a
// parallel.ForEach callback or from a harvest/merge reduction
// function. Float addition is not associative: summing the same values
// in a different worker interleaving yields different low bits, which
// breaks the repo's byte-identical-at-any-jobs determinism contract.
// Counter-class accumulation must use int64 fixed point (see
// timeseries.NJ); genuinely order-independent or sequential-by-
// construction sites carry //ntclint:allow floatorder <reason>.
var FloatorderAnalyzer = &analysis.Analyzer{
	Name: "floatorder",
	Doc: "flag order-dependent float accumulation reachable from parallel fan-out\n\n" +
		"Float += in parallel.ForEach callbacks (and functions they call, and\n" +
		"harvest/merge reducers) makes results depend on worker scheduling. Accumulate\n" +
		"in int64 fixed point, or annotate //ntclint:allow floatorder <reason> where\n" +
		"the order is provably fixed.",
	Run: runFloatorder,
}

func init() {
	FloatorderAnalyzer.Flags.String("parallelpkg", floatorderParallelDefault,
		"import path of the parallel fan-out package whose callbacks are checked")
	FloatorderAnalyzer.Flags.String("roots", floatorderRootsDefault,
		"regexp of function names treated as merge/harvest reduction roots")
}

// isFloat reports whether t is (or is named with underlying) float32/64.
func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

func runFloatorder(pass *analysis.Pass) (interface{}, error) {
	parallelpkg := pass.Analyzer.Flags.Lookup("parallelpkg").Value.String()
	rootsPat := pass.Analyzer.Flags.Lookup("roots").Value.String()
	rootsRE, err := regexp.Compile(rootsPat)
	if err != nil {
		return nil, err
	}
	// The parallel package itself orchestrates workers sequentially from
	// the coordinator's point of view and is exempt from its own rule.
	if pathMatches(pkgPath(pass), parallelpkg) {
		return nil, nil
	}

	// Index every function declared in this package so call edges can be
	// resolved to bodies.
	decls := map[types.Object]*ast.FuncDecl{}
	eachNonTestFile(pass, func(f *ast.File) {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj := pass.TypesInfo.Defs[fd.Name]; obj != nil {
				decls[obj] = fd
			}
		}
	})

	// calleeFromParallel reports whether the call target is a function
	// exported by the parallel fan-out package.
	calleeFromParallel := func(call *ast.CallExpr) bool {
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return false
		}
		fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		return ok && fn.Pkg() != nil && pathMatches(fn.Pkg().Path(), parallelpkg)
	}

	// Seed the marked set: function literals and same-package function
	// references passed to parallel fan-out calls, plus declared
	// harvest/merge reducers. marked maps a body to the reason it is
	// order-sensitive; the worklist then closes over same-package calls.
	type rootedBody struct {
		body   *ast.BlockStmt
		reason string
	}
	marked := map[*ast.BlockStmt]string{}
	var queue []rootedBody
	mark := func(body *ast.BlockStmt, reason string) {
		if body == nil {
			return
		}
		if _, dup := marked[body]; dup {
			return
		}
		marked[body] = reason
		queue = append(queue, rootedBody{body, reason})
	}
	// funcRefBody resolves an expression naming a same-package declared
	// function (ident or method value) to its body.
	funcRefBody := func(e ast.Expr) *ast.BlockStmt {
		var id *ast.Ident
		switch e := e.(type) {
		case *ast.Ident:
			id = e
		case *ast.SelectorExpr:
			id = e.Sel
		default:
			return nil
		}
		obj := pass.TypesInfo.Uses[id]
		if obj == nil {
			return nil
		}
		if fd, ok := decls[obj]; ok {
			return fd.Body
		}
		return nil
	}

	// Roots are seeded in source order (not map order) so the reason a
	// body carries — and hence the diagnostic text — is deterministic
	// even when a callee is reachable from several roots.
	eachNonTestFile(pass, func(f *ast.File) {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if rootsRE.MatchString(fd.Name.Name) {
				mark(fd.Body, "harvest/merge reducer "+fd.Name.Name)
			}
		}
	})
	eachNonTestFile(pass, func(f *ast.File) {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !calleeFromParallel(call) {
				return true
			}
			for _, arg := range call.Args {
				if lit, ok := arg.(*ast.FuncLit); ok {
					mark(lit.Body, "parallel fan-out callback")
				} else if body := funcRefBody(arg); body != nil {
					mark(body, "parallel fan-out callback")
				}
			}
			return true
		})
	})

	// Transitive closure: a function called from an order-sensitive body
	// is itself order-sensitive.
	for len(queue) > 0 {
		rb := queue[0]
		queue = queue[1:]
		ast.Inspect(rb.body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if body := funcRefBody(call.Fun); body != nil {
				mark(body, rb.reason)
			}
			return true
		})
	}

	ai := newAllowIndex(pass, pass.Analyzer.Name)
	// sameVar reports whether two expressions denote the same variable
	// (same object for idents; same object chain for selector fields).
	var sameVar func(a, b ast.Expr) bool
	sameVar = func(a, b ast.Expr) bool {
		switch a := a.(type) {
		case *ast.Ident:
			b, ok := b.(*ast.Ident)
			if !ok {
				return false
			}
			oa, ob := pass.TypesInfo.Uses[a], pass.TypesInfo.Uses[b]
			if oa == nil {
				oa = pass.TypesInfo.Defs[a]
			}
			if ob == nil {
				ob = pass.TypesInfo.Defs[b]
			}
			return oa != nil && oa == ob
		case *ast.SelectorExpr:
			b, ok := b.(*ast.SelectorExpr)
			return ok && a.Sel.Name == b.Sel.Name && sameVar(a.X, b.X)
		case *ast.ParenExpr:
			return sameVar(a.X, b)
		}
		return false
	}
	reported := map[token.Pos]bool{}
	bodies := make([]*ast.BlockStmt, 0, len(marked))
	for body := range marked {
		bodies = append(bodies, body)
	}
	sort.Slice(bodies, func(i, j int) bool { return bodies[i].Pos() < bodies[j].Pos() })
	for _, body := range bodies {
		reason := marked[body]
		ast.Inspect(body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			var accum ast.Expr
			switch as.Tok {
			case token.ADD_ASSIGN, token.SUB_ASSIGN:
				accum = as.Lhs[0]
			case token.ASSIGN:
				if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
					return true
				}
				bin, ok := as.Rhs[0].(*ast.BinaryExpr)
				if !ok || (bin.Op != token.ADD && bin.Op != token.SUB) {
					return true
				}
				if sameVar(as.Lhs[0], bin.X) || (bin.Op == token.ADD && sameVar(as.Lhs[0], bin.Y)) {
					accum = as.Lhs[0]
				}
			}
			if accum == nil {
				return true
			}
			t := pass.TypesInfo.TypeOf(accum)
			if t == nil || !isFloat(t) {
				return true
			}
			if reported[as.Pos()] || ai.allowed(as.Pos()) {
				return true
			}
			reported[as.Pos()] = true
			pass.Reportf(as.Pos(),
				"order-dependent float accumulation in %s: float addition is not "+
					"associative, so the result depends on worker interleaving — "+
					"accumulate in int64 fixed point (see timeseries.NJ) or annotate "+
					"//ntclint:allow floatorder <reason>",
				reason)
			return true
		})
	}
	return nil, nil
}
