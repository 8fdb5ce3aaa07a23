package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
)

// snapshotPkgDefault lists the packages whose Snapshot/Restore pairs are
// audited: the cluster simulator's checkpoints, the telemetry layer's
// exports, and the serving DES, which has no pair today but is audited
// so that any pair added there is checked from its first commit.
const snapshotPkgDefault = "ntcsim/internal/sim," +
	"ntcsim/internal/serve," +
	"ntcsim/internal/obs/timeseries"

// snapshotPairsDefault names the getter:setter method conventions that
// form a checkpoint pair in this repo. A getter with no matching setter
// anywhere in its package (e.g. a read-only expvar export) is not a
// checkpoint and is skipped.
const snapshotPairsDefault = "Snapshot:Restore," +
	"State:Restore," +
	"state:setState," +
	"balancerState:setBalancerState," +
	"Checkpoint:RestoreCluster"

// SnapshotcheckAnalyzer verifies that every Snapshot/Restore-style pair
// mirrors all stateful fields in both directions:
//
//  1. every field of the live struct is referenced by the getter (state
//     the snapshot does not capture silently escapes checkpointing);
//  2. every field of the snapshot image is written by the getter; and
//  3. every field of the image is read back by the setter.
//
// Fields that are configuration or derived (rebuilt by the constructor,
// never mutated mid-run) carry //ntclint:allow snapshotcheck <reason> on
// their declaration; sync primitives and blank fields are skipped
// automatically. The point is forward protection: a field later added to
// sim.Cluster fails the lint gate until it is either mirrored into the
// snapshot or explicitly declared stateless.
var SnapshotcheckAnalyzer = &analysis.Analyzer{
	Name: "snapshotcheck",
	Doc: "verify Snapshot/Restore pairs mirror every stateful field both ways\n\n" +
		"For each getter:setter checkpoint pair, all live-struct fields must be\n" +
		"referenced by the getter, and all snapshot-image fields must be written by\n" +
		"the getter and read by the setter. Annotate config/derived fields with\n" +
		"//ntclint:allow snapshotcheck <reason> on their declaration.",
	Run: runSnapshotcheck,
}

func init() {
	SnapshotcheckAnalyzer.Flags.String("packages", snapshotPkgDefault,
		"comma-separated package path prefixes whose checkpoint pairs are audited")
	SnapshotcheckAnalyzer.Flags.String("pairs", snapshotPairsDefault,
		"comma-separated getter:setter name pairs that form a checkpoint")
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
// (Mutex, RWMutex, Once, …) — lock state is never checkpointed.
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

func (fr *fieldRefs) has(named *types.Named, f *types.Var) bool {
	return fr.fields[f] || fr.wholesale[named]
}

// collectFieldRefs walks a function body recording every struct field it
// references: selector accesses, keyed composite-literal fields,
// positional composite literals (which by Go's rules cover every field),
// and bare uses of the tracked receiver/parameter variables (a wholesale
// copy like *snap touches every field).
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

// checkpointPair is one resolved getter/setter pair on a live type.
type checkpointPair struct {
	liveNamed   *types.Named
	liveStruct  *types.Struct
	getterName  string
	getter      *ast.FuncDecl
	imageNamed  *types.Named // nil when the image is not a named struct
	imageStruct *types.Struct
	setterName  string
	setter      *ast.FuncDecl
}

func runSnapshotcheck(pass *analysis.Pass) (interface{}, error) {
	pkgs := pass.Analyzer.Flags.Lookup("packages").Value.String()
	if !pathMatches(pkgPath(pass), pkgs) {
		return nil, nil
	}
	pairsSpec := pass.Analyzer.Flags.Lookup("pairs").Value.String()
	type pairNames struct{ getter, setter string }
	var pairs []pairNames
	for _, p := range strings.Split(pairsSpec, ",") {
		g, s, ok := strings.Cut(strings.TrimSpace(p), ":")
		if ok && g != "" && s != "" {
			pairs = append(pairs, pairNames{g, s})
		}
	}

	// Index every declared function, in source order for determinism.
	var funcs []*ast.FuncDecl
	eachNonTestFile(pass, func(f *ast.File) {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				funcs = append(funcs, fd)
			}
		}
	})
	// recvNamed resolves a method's receiver to its named type.
	recvNamed := func(fd *ast.FuncDecl) *types.Named {
		if fd.Recv == nil || len(fd.Recv.List) != 1 {
			return nil
		}
		t := pass.TypesInfo.TypeOf(fd.Recv.List[0].Type)
		if t == nil {
			return nil
		}
		named, _ := namedStruct(t)
		return named
	}
	// paramOfType reports whether fd takes a parameter of the image type.
	paramOfType := func(fd *ast.FuncDecl, image *types.Named) bool {
		if image == nil || fd.Type.Params == nil {
			return false
		}
		for _, f := range fd.Type.Params.List {
			t := pass.TypesInfo.TypeOf(f.Type)
			if t == nil {
				continue
			}
			if n, _ := namedStruct(t); n == image {
				return true
			}
		}
		return false
	}

	var resolved []checkpointPair
	for _, fd := range funcs {
		live := recvNamed(fd)
		if live == nil {
			continue
		}
		if fd.Type.Params != nil && len(fd.Type.Params.List) > 0 {
			continue
		}
		if fd.Type.Results == nil || len(fd.Type.Results.List) != 1 {
			continue
		}
		for _, pn := range pairs {
			if fd.Name.Name != pn.getter {
				continue
			}
			cp := checkpointPair{
				liveNamed:  live,
				getterName: pn.getter,
				getter:     fd,
				setterName: pn.setter,
			}
			cp.liveStruct, _ = live.Underlying().(*types.Struct)
			rt := pass.TypesInfo.TypeOf(fd.Type.Results.List[0].Type)
			if rt != nil {
				cp.imageNamed, cp.imageStruct = namedStruct(rt)
			}
			// A plain (non-struct) single-value image — e.g. the
			// balancer's uint64 — still gets live-coverage checking.
			for _, cand := range funcs {
				if cand.Name.Name != pn.setter || cand == fd {
					continue
				}
				crecv := recvNamed(cand)
				switch {
				case crecv == live && (cp.imageNamed == nil || paramOfType(cand, cp.imageNamed)):
					cp.setter = cand // method on the live type taking the image
				case crecv != nil && cp.imageNamed != nil && crecv == cp.imageNamed:
					cp.setter = cand // method on the image type itself
				case crecv == nil && paramOfType(cand, cp.imageNamed):
					cp.setter = cand // package-level restore function (RestoreCluster)
				}
				if cp.setter != nil {
					break
				}
			}
			if cp.setter != nil {
				resolved = append(resolved, cp)
			}
		}
	}

	ai := newAllowIndex(pass, pass.Analyzer.Name)
	skipField := func(f *types.Var) bool {
		return f.Name() == "_" || isSyncField(f.Type()) || ai.allowed(f.Pos())
	}
	for _, cp := range resolved {
		liveDesc := cp.liveNamed.Obj().Name()
		// Track the getter receiver and the setter's receiver/params so
		// wholesale uses are recognized.
		getterTracked := map[*types.Var]*types.Named{}
		if cp.getter.Recv != nil && len(cp.getter.Recv.List) == 1 && len(cp.getter.Recv.List[0].Names) == 1 {
			if obj, ok := pass.TypesInfo.Defs[cp.getter.Recv.List[0].Names[0]].(*types.Var); ok {
				getterTracked[obj] = cp.liveNamed
			}
		}
		gRefs := collectFieldRefs(pass, cp.getter.Body, getterTracked)

		if cp.liveStruct != nil {
			for i := 0; i < cp.liveStruct.NumFields(); i++ {
				f := cp.liveStruct.Field(i)
				if skipField(f) || gRefs.has(cp.liveNamed, f) {
					continue
				}
				pass.Reportf(f.Pos(),
					"field %s.%s is not captured by %s: stateful fields must be "+
						"mirrored into the snapshot image, or annotated "+
						"//ntclint:allow snapshotcheck <reason> if configuration/derived",
					liveDesc, f.Name(), cp.getterName)
			}
		}
		if cp.imageStruct != nil && cp.imageNamed != cp.liveNamed {
			imageDesc := cp.imageNamed.Obj().Name()
			setterTracked := map[*types.Var]*types.Named{}
			for _, fl := range cp.setter.Type.Params.List {
				t := pass.TypesInfo.TypeOf(fl.Type)
				if t == nil {
					continue
				}
				if n, _ := namedStruct(t); n == cp.imageNamed {
					for _, name := range fl.Names {
						if obj, ok := pass.TypesInfo.Defs[name].(*types.Var); ok {
							setterTracked[obj] = cp.imageNamed
						}
					}
				}
			}
			if cp.setter.Recv != nil && len(cp.setter.Recv.List) == 1 && len(cp.setter.Recv.List[0].Names) == 1 {
				if obj, ok := pass.TypesInfo.Defs[cp.setter.Recv.List[0].Names[0]].(*types.Var); ok {
					if n := recvNamed(cp.setter); n == cp.imageNamed {
						setterTracked[obj] = cp.imageNamed
					}
				}
			}
			sRefs := collectFieldRefs(pass, cp.setter.Body, setterTracked)
			for i := 0; i < cp.imageStruct.NumFields(); i++ {
				f := cp.imageStruct.Field(i)
				if skipField(f) {
					continue
				}
				if !gRefs.has(cp.imageNamed, f) {
					pass.Reportf(f.Pos(),
						"snapshot field %s.%s is never written by %s.%s: the image "+
							"must cover exactly the state the getter captures",
						imageDesc, f.Name(), liveDesc, cp.getterName)
				}
				if !sRefs.has(cp.imageNamed, f) {
					pass.Reportf(f.Pos(),
						"snapshot field %s.%s is never read back by %s: restoring "+
							"must consume every field the snapshot carries",
						imageDesc, f.Name(), cp.setterName)
				}
			}
		}
	}
	return nil, nil
}
