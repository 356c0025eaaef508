// Package detrange guards determinism in every code path that feeds
// counters, results artifacts, or replay logs. The multichannel
// self-check's counter-exactness proof and the byte-identical artifact
// contract (diff -r between -parallel runs) both assume that
// simulator code never observes nondeterministic ordering or ambient
// entropy. Three constructs break that silently:
//
//   - ranging over a map (iteration order is randomized per run),
//   - time.Now (wall clock leaks into simulated state or artifacts),
//   - the global math/rand source (shared, unseeded, order-dependent).
//
// Seeded generators (rand.New(rand.NewSource(seed))) remain fine; the
// analyzer only flags calls through the package-level source.
//
// The check is also interprocedural: a call into another module
// package whose callee transitively reaches time.Now or the global
// math/rand source (through direct calls — interface dispatch is not
// followed) is a finding at the call site, unless the callee's
// package is itself inside the deterministic scope (then its own run
// already reports, or suppresses with a reason, at the source). The
// scope is injected via InScope by the simlint registry.
package detrange

import (
	"go/ast"
	"go/types"

	"twolm/internal/analysis/lintkit"
)

// Analyzer is the detrange analyzer.
var Analyzer = &lintkit.Analyzer{
	Name: "detrange",
	Doc: "no map iteration, time.Now, or global math/rand in simulator " +
		"packages; counter exactness and byte-identical artifacts assume " +
		"deterministic ordering",
	Run: run,
}

// seededConstructors are math/rand functions that build explicit,
// seedable generators rather than drawing from the global source.
var seededConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

// InScope reports whether an import path belongs to the deterministic
// scope detrange runs on. The simlint registry injects its scope map
// here so the cross-package check knows which callees already answer
// for their own determinism. When nil (standalone use, fixtures),
// only the package under analysis is considered in scope — the
// strictest reading.
var InScope func(importPath string) bool

func run(pass *lintkit.Pass) error {
	nondet := newNondetIndex(pass)
	for _, f := range pass.Files {
		if pass.InTestFile(f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch e := n.(type) {
			case *ast.RangeStmt:
				t := pass.TypesInfo.TypeOf(e.X)
				if t == nil {
					return true
				}
				if m, ok := t.Underlying().(*types.Map); ok && !keyCollectionLoop(e) {
					pass.Reportf(e.X.Pos(),
						"iteration over %s has randomized order; counter, artifact, and replay paths must be deterministic — collect and sort the keys first", types.TypeString(m, types.RelativeTo(pass.Pkg)))
				}
			case *ast.CallExpr:
				checkCall(pass, e)
				nondet.checkCrossPackageCall(pass, e)
			}
			return true
		})
	}
	return nil
}

// keyCollectionLoop matches the first half of the canonical
// deterministic idiom — `for k := range m { keys = append(keys, k) }`
// — whose body is order-insensitive by construction (the sort that
// follows fixes the order). Exempting it keeps the recommended fix
// itself lint-clean.
func keyCollectionLoop(rs *ast.RangeStmt) bool {
	key, ok := rs.Key.(*ast.Ident)
	if !ok || rs.Value != nil || len(rs.Body.List) != 1 {
		return false
	}
	as, ok := rs.Body.List[0].(*ast.AssignStmt)
	if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return false
	}
	dst, ok := as.Lhs[0].(*ast.Ident)
	if !ok {
		return false
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) != 2 {
		return false
	}
	fn, ok := call.Fun.(*ast.Ident)
	if !ok || fn.Name != "append" {
		return false
	}
	src, ok := call.Args[0].(*ast.Ident)
	arg, ok2 := call.Args[1].(*ast.Ident)
	return ok && ok2 && src.Name == dst.Name && arg.Name == key.Name
}

func checkCall(pass *lintkit.Pass, ce *ast.CallExpr) {
	se, ok := ce.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	id, ok := se.X.(*ast.Ident)
	if !ok {
		return
	}
	pn, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
	if !ok {
		return
	}
	switch pn.Imported().Path() {
	case "time":
		if se.Sel.Name == "Now" {
			pass.Reportf(ce.Pos(),
				"time.Now in simulator code leaks wall-clock nondeterminism into state that must replay identically; model time explicitly or suppress with a reason if this measures the simulator itself")
		}
	case "math/rand", "math/rand/v2":
		if !seededConstructors[se.Sel.Name] {
			pass.Reportf(ce.Pos(),
				"rand.%s draws from the global math/rand source, which is order-dependent across goroutines and runs; use a seeded rand.New(rand.NewSource(seed))", se.Sel.Name)
		}
	}
}

// ---- interprocedural cross-package check ----

// nondetSource names the nondeterminism a call expression introduces
// directly ("time.Now", "rand.Shuffle"), or "".
func nondetSource(info *types.Info, ce *ast.CallExpr) string {
	se, ok := ast.Unparen(ce.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	id, ok := se.X.(*ast.Ident)
	if !ok {
		return ""
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return ""
	}
	switch pn.Imported().Path() {
	case "time":
		if se.Sel.Name == "Now" {
			return "time.Now"
		}
	case "math/rand", "math/rand/v2":
		if !seededConstructors[se.Sel.Name] {
			return "rand." + se.Sel.Name
		}
	}
	return ""
}

// staticCallee resolves a call to its single static module-level
// callee: a plain function, a qualified function, or a concrete
// method. Interface dispatch returns nil — the cross-package check
// deliberately follows only edges the programmer wrote explicitly, so
// pluggable sinks (telemetry, experiments) don't smear their own
// nondeterminism onto every caller of the interface.
func staticCallee(info *types.Info, ce *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(ce.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			if _, ok := sel.Recv().Underlying().(*types.Interface); ok {
				return nil
			}
		}
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// nondetIndex memoizes, per module function, the nondeterminism
// source it transitively reaches through direct calls.
type nondetIndex struct {
	mod   *lintkit.Module
	state map[*types.Func]int // 0 unvisited, 1 in progress, 2 done
	src   map[*types.Func]string
}

func newNondetIndex(pass *lintkit.Pass) *nondetIndex {
	return &nondetIndex{
		mod:   pass.Module,
		state: map[*types.Func]int{},
		src:   map[*types.Func]string{},
	}
}

// reaches returns the nondeterminism source fn transitively reaches,
// or "".
func (ix *nondetIndex) reaches(fn *types.Func) string {
	if ix.state[fn] != 0 {
		return ix.src[fn] // in-progress cycles read as clean-so-far
	}
	ix.state[fn] = 1
	fd, fpkg := ix.mod.FuncDecl(fn)
	if fd == nil || fd.Body == nil {
		ix.state[fn] = 2
		return ""
	}
	found := ""
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found != "" {
			return false
		}
		ce, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if s := nondetSource(fpkg.Info, ce); s != "" {
			found = s
			return false
		}
		if callee := staticCallee(fpkg.Info, ce); callee != nil && callee != fn {
			if s := ix.reaches(callee); s != "" {
				found = s
				return false
			}
		}
		return true
	})
	ix.src[fn] = found
	ix.state[fn] = 2
	return found
}

// checkCrossPackageCall flags a call whose module-local callee lives
// in another package outside the deterministic scope and transitively
// reaches a nondeterminism source. In-scope callees are skipped: their
// own package run reports (or suppresses, with an auditable reason)
// at the source.
func (ix *nondetIndex) checkCrossPackageCall(pass *lintkit.Pass, ce *ast.CallExpr) {
	callee := staticCallee(pass.TypesInfo, ce)
	if callee == nil || callee.Pkg() == nil || callee.Pkg() == pass.Pkg {
		return
	}
	if fd, _ := ix.mod.FuncDecl(callee); fd == nil {
		return // outside the module view
	}
	if InScope != nil && InScope(callee.Pkg().Path()) {
		return
	}
	if s := ix.reaches(callee); s != "" {
		pass.Reportf(ce.Pos(),
			"cross-package call to %s reaches %s, and %s is outside the deterministic scope so nothing reports it there; model the dependency explicitly or bring the package into the detrange scope",
			lintkit.FuncDisplayName(callee), s, callee.Pkg().Path())
	}
}
