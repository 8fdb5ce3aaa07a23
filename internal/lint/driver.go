package lint

// The driver: a self-contained package loader and analyzer runner built
// on the standard library only. It serves `ntclint`, which runs as a bare
// binary even without the build cache, and the linttest harness, which
// type-checks fixture trees under testdata/src. The loader resolves
// module-local import paths to directories, serves vendored third-party
// packages from vendor/, and type-checks the standard library from
// GOROOT/src via the compiler's "source" importer — no network, no go
// command.

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"golang.org/x/tools/go/analysis"
)

// Package is one loaded, type-checked package.
type Package struct {
	Path  string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages for the driver.
type Loader struct {
	// Fset receives the positions of every parsed file.
	Fset *token.FileSet
	// Resolve maps an import path to its source directory. Paths it
	// rejects fall through to the standard library's source importer.
	Resolve func(path string) (dir string, ok bool)

	std     types.Importer
	pkgs    map[string]*Package
	loading map[string]bool
}

// NewLoader returns a loader resolving local packages through resolve.
func NewLoader(resolve func(path string) (string, bool)) *Loader {
	fset := token.NewFileSet()
	return &Loader{
		Fset:    fset,
		Resolve: resolve,
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    map[string]*Package{},
		loading: map[string]bool{},
	}
}

// Load parses and type-checks the package at the given import path.
func (l *Loader) Load(path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %q", path)
	}
	dir, ok := l.Resolve(path)
	if !ok {
		return nil, fmt.Errorf("lint: cannot resolve import path %q", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: reading %s: %w", dir, err)
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: parsing %s: %w", name, err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	cfg := &types.Config{
		Importer: importerFunc(func(ipath string) (*types.Package, error) {
			if ipath == "unsafe" {
				return types.Unsafe, nil
			}
			if _, local := l.Resolve(ipath); local {
				p, err := l.Load(ipath)
				if err != nil {
					return nil, err
				}
				return p.Types, nil
			}
			return l.std.Import(ipath)
		}),
	}
	tpkg, err := cfg.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	p := &Package{Path: path, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = p
	return p, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// Diagnostic is one finding of the driver.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Run executes the analyzers over one loaded package and returns their
// findings sorted by position. Analyzer prerequisites (Requires) run
// first with their results wired into ResultOf; facts are not
// supported — the ntclint suite does not use them.
func (l *Loader) Run(pkg *Package, analyzers ...*analysis.Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		if _, err := l.runAnalyzer(pkg, a, &diags); err != nil {
			return nil, err
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

func (l *Loader) runAnalyzer(pkg *Package, a *analysis.Analyzer, diags *[]Diagnostic) (interface{}, error) {
	results := map[*analysis.Analyzer]interface{}{}
	for _, req := range a.Requires {
		res, err := l.runAnalyzer(pkg, req, diags)
		if err != nil {
			return nil, err
		}
		results[req] = res
	}
	pass := &analysis.Pass{
		Analyzer:   a,
		Fset:       l.Fset,
		Files:      pkg.Files,
		Pkg:        pkg.Types,
		TypesInfo:  pkg.Info,
		TypesSizes: types.SizesFor("gc", "amd64"),
		ResultOf:   results,
		ReadFile:   os.ReadFile,
		Report: func(d analysis.Diagnostic) {
			*diags = append(*diags, Diagnostic{
				Pos:      l.Fset.Position(d.Pos),
				Analyzer: a.Name,
				Message:  d.Message,
			})
		},
		ImportObjectFact:  func(types.Object, analysis.Fact) bool { return false },
		ImportPackageFact: func(*types.Package, analysis.Fact) bool { return false },
		ExportObjectFact:  func(types.Object, analysis.Fact) {},
		ExportPackageFact: func(analysis.Fact) {},
		AllObjectFacts:    func() []analysis.ObjectFact { return nil },
		AllPackageFacts:   func() []analysis.PackageFact { return nil },
	}
	return a.Run(pass)
}

// ModuleResolver returns a Resolve function for a Go module rooted at
// root with the given module path: module-local imports map to their
// subdirectories and anything present under vendor/ is served from
// there. Everything else (the standard library) is rejected, sending
// the loader to the source importer.
func ModuleResolver(root, modpath string) func(string) (string, bool) {
	return func(path string) (string, bool) {
		if path == modpath {
			return root, true
		}
		if strings.HasPrefix(path, modpath+"/") {
			return filepath.Join(root, filepath.FromSlash(strings.TrimPrefix(path, modpath+"/"))), true
		}
		vdir := filepath.Join(root, "vendor", filepath.FromSlash(path))
		if hasGoFiles(vdir) {
			return vdir, true
		}
		return "", false
	}
}

// hasGoFiles reports whether dir contains at least one non-test Go file.
func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true
		}
	}
	return false
}

// FindModule walks upward from dir to the enclosing go.mod and returns
// the module root and module path.
func FindModule(dir string) (root, modpath string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, rerr := os.ReadFile(filepath.Join(dir, "go.mod"))
		if rerr == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module line", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("lint: no go.mod above %s", dir)
		}
		dir = parent
	}
}

// ModulePackages lists the import paths of every package in the module
// rooted at root, skipping vendor/, testdata/, hidden directories and
// test-only directories.
func ModulePackages(root, modpath string) ([]string, error) {
	var paths []string
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "vendor" || name == "testdata" || name == "bin") {
			return filepath.SkipDir
		}
		if !hasGoFiles(p) {
			return nil
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		if rel == "." {
			paths = append(paths, modpath)
		} else {
			paths = append(paths, modpath+"/"+filepath.ToSlash(rel))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	return paths, nil
}

// LintModule runs the given analyzers over every package of the module
// rooted at root and returns the findings deduplicated and sorted by
// position. Deduplication matters because the same file can be loaded
// into more than one package variant (a package plus its in-package
// test unit, or a file reached through several import chains): the same
// (position, analyzer, message) triple is reported once per run.
func LintModule(root, modpath string, analyzers ...*analysis.Analyzer) ([]Diagnostic, error) {
	loader := NewLoader(ModuleResolver(root, modpath))
	paths, err := ModulePackages(root, modpath)
	if err != nil {
		return nil, err
	}
	var all []Diagnostic
	for _, path := range paths {
		pkg, err := loader.Load(path)
		if err != nil {
			return nil, err
		}
		diags, err := loader.Run(pkg, analyzers...)
		if err != nil {
			return nil, err
		}
		all = append(all, diags...)
	}
	return Dedupe(all), nil
}

// Dedupe drops diagnostics whose (position, analyzer, message) triple
// has already been seen and returns the survivors globally sorted by
// file, line, column, analyzer.
func Dedupe(diags []Diagnostic) []Diagnostic {
	type key struct {
		file      string
		line, col int
		analyzer  string
		message   string
	}
	seen := map[key]bool{}
	out := diags[:0]
	for _, d := range diags {
		k := key{d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message}
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}
