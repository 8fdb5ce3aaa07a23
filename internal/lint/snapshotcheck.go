package lint

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
)

// snapshotPkgDefault lists the packages whose copy methods are audited:
// the cluster simulator, whose checkpoint is a never-run clone of a
// cluster, every component that clone copies (cores, caches, DRAM,
// crossbar, workload generators), and the serving DES and telemetry
// layer, which have no Clone today but are audited so that any Clone
// added there is checked from its first commit.
const snapshotPkgDefault = "ntcsim/internal/sim," +
	"ntcsim/internal/cpu," +
	"ntcsim/internal/cache," +
	"ntcsim/internal/dram," +
	"ntcsim/internal/uncore," +
	"ntcsim/internal/workload," +
	"ntcsim/internal/serve," +
	"ntcsim/internal/obs/timeseries"

// SnapshotcheckAnalyzer verifies that every copy method — Clone, clone,
// and the copy-into routines CloneInto and cloneInto, which make a
// destination the receiver's copy while reusing its storage — decides,
// field by field, what its copy owns:
//
//  1. a body that copies the receiver as a whole (n := *c, or *dst = *c)
//     carries every value field, but each field of reference type —
//     pointer, slice, map, chan, func or interface — must still be named
//     in the body, where the author copies it or shares it on purpose; a
//     forgotten one would be shared silently between the original and
//     its copy;
//  2. a body that does not copy the receiver as a whole must name every
//     field.
//
// A Clone whose body only returns a call of its own type's copy-into
// routine (return c.CloneInto(nil)) is that routine with a fresh
// destination: the routine is audited in its place.
//
// A field may opt out with //ntclint:allow snapshotcheck <reason> on its
// declaration; sync primitives and blank fields are skipped
// automatically. The point is forward protection: a reference field
// later added to cpu.Core fails the lint gate until Core.Clone says
// whether the copy gets its own.
var SnapshotcheckAnalyzer = &analysis.Analyzer{
	Name: "snapshotcheck",
	Doc: "verify Clone and CloneInto methods copy or knowingly share every field\n\n" +
		"A Clone/clone/CloneInto/cloneInto method that copies its receiver whole\n" +
		"(n := *c, *dst = *c) must still name each pointer, slice, map, chan, func\n" +
		"or interface field; one that does not must name every field. A Clone that\n" +
		"only returns its type's CloneInto call is audited through that routine.\n" +
		"Annotate a field that needs neither with //ntclint:allow snapshotcheck\n" +
		"<reason> on its declaration.",
	Run: runSnapshotcheck,
}

func init() {
	SnapshotcheckAnalyzer.Flags.String("packages", snapshotPkgDefault,
		"comma-separated package path prefixes whose Clone and CloneInto methods are audited")
}

// copyMethods names the audited methods: the clones and the copy-into
// routines they may delegate to.
var copyMethods = map[string]bool{"Clone": true, "clone": true, "CloneInto": true, "cloneInto": true}

// delegates reports whether body is a single return of a call to a
// copy-into method of named, the receiver's own type: such a Clone is
// the routine it calls, audited on its own.
func delegates(pass *analysis.Pass, body *ast.BlockStmt, named *types.Named) bool {
	if len(body.List) != 1 {
		return false
	}
	ret, ok := body.List[0].(*ast.ReturnStmt)
	if !ok || len(ret.Results) != 1 {
		return false
	}
	call, ok := ret.Results[0].(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	s := pass.TypesInfo.Selections[sel]
	if s == nil || s.Kind() != types.MethodVal || (sel.Sel.Name != "CloneInto" && sel.Sel.Name != "cloneInto") {
		return false
	}
	recv, _ := namedStruct(s.Recv())
	return recv == named
}

// namedStruct unwraps pointers and reports the named struct type behind
// t, if any.
func namedStruct(t types.Type) (*types.Named, *types.Struct) {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil, nil
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return nil, nil
	}
	return named, st
}

// isSyncField reports whether the field's type comes from package sync
// (Mutex, RWMutex, Once, …) — lock state is never cloned.
func isSyncField(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	pkg := named.Obj().Pkg()
	return pkg != nil && pkg.Path() == "sync"
}

// fieldRefs records which struct-field objects a function body touches.
// wholesale holds types whose every field must be considered touched
// because a value of that type was used bare (copied, dereferenced, or
// passed on whole).
type fieldRefs struct {
	fields    map[*types.Var]bool
	wholesale map[*types.Named]bool
}

// collectFieldRefs walks a function body recording every struct field it
// references: selector accesses, keyed composite-literal fields,
// positional composite literals (which by Go's rules cover every field),
// and bare uses of the tracked receiver variable (a wholesale copy like
// n := *c touches every field).
func collectFieldRefs(pass *analysis.Pass, body *ast.BlockStmt, tracked map[*types.Var]*types.Named) *fieldRefs {
	fr := &fieldRefs{fields: map[*types.Var]bool{}, wholesale: map[*types.Named]bool{}}
	// Idents appearing as the base of a selector are not bare uses.
	selBase := map[*ast.Ident]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		x := sel.X
		for {
			if p, ok := x.(*ast.ParenExpr); ok {
				x = p.X
				continue
			}
			break
		}
		if id, ok := x.(*ast.Ident); ok {
			selBase[id] = true
		}
		return true
	})
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if s := pass.TypesInfo.Selections[n]; s != nil && s.Kind() == types.FieldVal {
				if f, ok := s.Obj().(*types.Var); ok {
					fr.fields[f] = true
				}
			}
		case *ast.CallExpr:
			// A conversion to a named struct type (image(liveCopy))
			// carries every field: Go only permits it when the structures
			// are identical.
			if tv, ok := pass.TypesInfo.Types[n.Fun]; ok && tv.IsType() {
				if named, st := namedStruct(tv.Type); st != nil {
					fr.wholesale[named] = true
				}
			}
		case *ast.CompositeLit:
			t := pass.TypesInfo.TypeOf(n)
			if t == nil {
				return true
			}
			named, st := namedStruct(t)
			if st == nil {
				return true
			}
			keyed := false
			for _, el := range n.Elts {
				kv, ok := el.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				keyed = true
				if id, ok := kv.Key.(*ast.Ident); ok {
					if f, ok := pass.TypesInfo.Uses[id].(*types.Var); ok {
						fr.fields[f] = true
					}
				}
			}
			if !keyed && len(n.Elts) > 0 && named != nil {
				// Positional literals must list every field.
				fr.wholesale[named] = true
			}
		case *ast.Ident:
			obj, ok := pass.TypesInfo.Uses[n].(*types.Var)
			if !ok {
				return true
			}
			named, isTracked := tracked[obj]
			if !isTracked || selBase[n] {
				return true
			}
			// A tracked variable used other than as a selector base is a
			// wholesale use: *snap, helper(s), snap2 := snap, …
			fr.wholesale[named] = true
		}
		return true
	})
	return fr
}

// isReference reports whether a value of type t refers to memory a
// plain copy would share.
func isReference(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Signature, *types.Interface:
		return true
	}
	return false
}

func runSnapshotcheck(pass *analysis.Pass) (interface{}, error) {
	pkgs := pass.Analyzer.Flags.Lookup("packages").Value.String()
	if !pathMatches(pkgPath(pass), pkgs) {
		return nil, nil
	}
	ai := newAllowIndex(pass, pass.Analyzer.Name)
	eachNonTestFile(pass, func(f *ast.File) {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Recv == nil || len(fd.Recv.List) != 1 || !copyMethods[fd.Name.Name] {
				continue
			}
			recv := fd.Recv.List[0]
			named, st := namedStruct(pass.TypesInfo.TypeOf(recv.Type))
			if st == nil || delegates(pass, fd.Body, named) {
				continue
			}
			tracked := map[*types.Var]*types.Named{}
			if len(recv.Names) == 1 {
				if obj, ok := pass.TypesInfo.Defs[recv.Names[0]].(*types.Var); ok {
					tracked[obj] = named
				}
			}
			refs := collectFieldRefs(pass, fd.Body, tracked)
			whole := refs.wholesale[named]
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if f.Name() == "_" || isSyncField(f.Type()) || ai.allowed(f.Pos()) || refs.fields[f] {
					continue
				}
				switch {
				case !whole:
					pass.Reportf(f.Pos(),
						"field %s.%s is not copied by %s: name every field, or "+
							"annotate //ntclint:allow snapshotcheck <reason>",
						named.Obj().Name(), f.Name(), fd.Name.Name)
				case isReference(f.Type()):
					pass.Reportf(f.Pos(),
						"reference field %s.%s is shared by the whole-value copy in %s: "+
							"copy it or share it by name, or annotate "+
							"//ntclint:allow snapshotcheck <reason>",
						named.Obj().Name(), f.Name(), fd.Name.Name)
				}
			}
		}
	})
	return nil, nil
}
