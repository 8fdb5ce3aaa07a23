package lint

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
)

// maprangeDetDefault lists the deterministic packages: everything whose
// output feeds simulation results, golden files, or the counter-class
// metrics sections. internal/obs and internal/parallel are deliberately
// absent — obs snapshots sort on marshal and the pool is timing-class
// by charter — as are the cmd/ front-ends.
const maprangeDetDefault = "ntcsim/internal/sim," +
	"ntcsim/internal/cpu," +
	"ntcsim/internal/dram," +
	"ntcsim/internal/cache," +
	"ntcsim/internal/core," +
	"ntcsim/internal/stats," +
	"ntcsim/internal/sram," +
	"ntcsim/internal/uncore," +
	"ntcsim/internal/tech," +
	"ntcsim/internal/platform," +
	"ntcsim/internal/power," +
	"ntcsim/internal/thermal," +
	"ntcsim/internal/workload," +
	"ntcsim/internal/qos," +
	"ntcsim/internal/governor," +
	"ntcsim/internal/serve," +
	"ntcsim/internal/sampling," +
	"ntcsim/internal/rng"

// MaprangeAnalyzer flags `range` over a map value in deterministic
// packages. Go randomizes map iteration order per run, so any map
// range whose body is order-sensitive (appends, float accumulation,
// first-wins selection, output) silently breaks reproducibility.
// Iterate a sorted key slice instead, or — when the body is provably
// commutative (pure uint adds, set inserts) — annotate the loop with
// //ntclint:allow maprange <reason>.
var MaprangeAnalyzer = &analysis.Analyzer{
	Name: "maprange",
	Doc: "flag range-over-map in deterministic packages\n\n" +
		"Map iteration order is randomized per run. In packages whose output must\n" +
		"be a pure function of inputs and seed, ranging over a map is a latent\n" +
		"reproducibility bug: sort the keys first, or annotate the loop with\n" +
		"//ntclint:allow maprange <reason> when the body is order-independent.",
	Run: runMaprange,
}

func init() {
	MaprangeAnalyzer.Flags.String("packages", maprangeDetDefault,
		"comma-separated package path prefixes held to the deterministic-iteration rule")
}

func runMaprange(pass *analysis.Pass) (interface{}, error) {
	det := pass.Analyzer.Flags.Lookup("packages").Value.String()
	if !pathMatches(pkgPath(pass), det) {
		return nil, nil
	}
	ai := newAllowIndex(pass, pass.Analyzer.Name)
	eachNonTestFile(pass, func(f *ast.File) {
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := pass.TypesInfo.Types[rs.X]
			if !ok {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			if ai.allowed(rs.Pos()) {
				return true
			}
			pass.Reportf(rs.Pos(),
				"range over map in deterministic package %s: iteration order is "+
					"randomized — iterate a sorted key slice, or annotate "+
					"//ntclint:allow maprange <reason> if the body is order-independent",
				pkgPath(pass))
			return true
		})
	})
	return nil, nil
}
