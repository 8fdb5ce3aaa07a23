package lint

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
)

// wallclockAllowDefault lists the packages whose job IS wall-clock
// measurement: the observability layer, the sampling phase-timing hook,
// the CLI front-ends and the HTTP job service (whose drain grace window is
// real time by definition). Everywhere else
// a clock read couples simulation output to the host and must either
// move behind an observer or carry an //ntclint:allow wallclock
// annotation explaining why it cannot influence results.
const wallclockAllowDefault = "ntcsim/internal/obs," +
	"ntcsim/internal/sampling," +
	"ntcsim/internal/service," +
	"ntcsim/cmd"

// wallclockFuncs are the time package's clock accessors. Types like
// time.Time and time.Duration remain free to use anywhere — only
// reading the host clock is restricted.
var wallclockFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Tick":      true,
	"NewTicker": true,
	"NewTimer":  true,
	"After":     true,
	"AfterFunc": true,
}

// WallclockAnalyzer forbids wall-clock reads outside the observability
// allowlist. Wall-clock values are timing-class (host- and
// scheduling-dependent); the determinism contract requires that they
// never reach a simulation result, and the cheapest way to guarantee
// that is to keep the readers themselves out of simulation packages.
var WallclockAnalyzer = &analysis.Analyzer{
	Name: "wallclock",
	Doc: "forbid time.Now/time.Since/time.Tick and friends outside the observability allowlist\n\n" +
		"Wall-clock reads are timing-class: their values depend on the host and the\n" +
		"scheduler, so any simulation path that consults them breaks the invariant\n" +
		"that output is a pure function of the inputs and the seed. Clock reads are\n" +
		"confined to the obs/sampling/cmd layers; elsewhere annotate the line with\n" +
		"//ntclint:allow wallclock <reason> if the value provably cannot reach results.",
	Run: runWallclock,
}

func init() {
	WallclockAnalyzer.Flags.String("allow", wallclockAllowDefault,
		"comma-separated package path prefixes where wall-clock reads are allowed")
}

func runWallclock(pass *analysis.Pass) (interface{}, error) {
	allow := pass.Analyzer.Flags.Lookup("allow").Value.String()
	if pathMatches(pkgPath(pass), allow) {
		return nil, nil
	}
	ai := newAllowIndex(pass, pass.Analyzer.Name)
	eachNonTestFile(pass, func(f *ast.File) {
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" || !wallclockFuncs[fn.Name()] {
				return true
			}
			if ai.allowed(id.Pos()) {
				return true
			}
			pass.Reportf(id.Pos(),
				"wall-clock read time.%s outside the observability allowlist: "+
					"timing-class values must not reach simulation paths "+
					"(move behind an observer, or annotate //ntclint:allow wallclock <reason>)",
				fn.Name())
			return true
		})
	})
	return nil, nil
}
