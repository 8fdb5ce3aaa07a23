package lint

import (
	"go/ast"
	"strconv"

	"golang.org/x/tools/go/analysis"
)

// globalrandAllowDefault: internal/rng is the one package allowed to
// sit on top of external randomness primitives (it defines the
// simulator's counter-based substreams; today it is self-contained, but
// the boundary belongs there).
const globalrandAllowDefault = "ntcsim/internal/rng"

// randImports are the forbidden sources of randomness. The global
// math/rand generators carry hidden shared state (order-dependent under
// concurrency); crypto/rand is non-reproducible by design. Both break
// the bit-identical-at-any-jobs contract.
var randImports = map[string]bool{
	"math/rand":    true,
	"math/rand/v2": true,
	"crypto/rand":  true,
}

// GlobalrandAnalyzer forbids importing math/rand, math/rand/v2 and
// crypto/rand in simulation packages. All simulator randomness flows
// through internal/rng: deterministic, seedable, and splittable into
// per-index substreams (rng.Stream.Split) so parallel work stays
// bit-identical to the serial loop.
var GlobalrandAnalyzer = &analysis.Analyzer{
	Name: "globalrand",
	Doc: "forbid math/rand, math/rand/v2 and crypto/rand imports in simulation packages\n\n" +
		"Randomness must come from internal/rng substreams: the global math/rand\n" +
		"state is shared (scheduling-dependent under -jobs > 1) and crypto/rand is\n" +
		"non-reproducible. Derive a stream with rng.New(seed).Derive(name) and split\n" +
		"per-index substreams with Stream.Split(i).",
	Run: runGlobalrand,
}

func init() {
	GlobalrandAnalyzer.Flags.String("allow", globalrandAllowDefault,
		"comma-separated package path prefixes where these imports are allowed")
}

func runGlobalrand(pass *analysis.Pass) (interface{}, error) {
	allow := pass.Analyzer.Flags.Lookup("allow").Value.String()
	if pathMatches(pkgPath(pass), allow) {
		return nil, nil
	}
	ai := newAllowIndex(pass, pass.Analyzer.Name)
	eachNonTestFile(pass, func(f *ast.File) {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil || !randImports[path] {
				continue
			}
			if ai.allowed(imp.Pos()) {
				continue
			}
			pass.Reportf(imp.Pos(),
				"import %q is forbidden in simulation packages: randomness must flow "+
					"through internal/rng substreams (rng.Stream.Split) to keep sweeps "+
					"bit-identical at any -jobs value",
				path)
		}
	})
	return nil, nil
}
