// Package shardsafe flags shared mutable state reachable from
// declared hot entry points — the static form of the discipline that
// lets sweep workers and parallel suite jobs drive many controllers
// concurrently: per-instance state must be confined to the instance.
//
// Two checks, both interprocedural over the lintkit call graph:
//
//  1. Package-level state. Any function reachable from a
//     //hot:entry-marked function must not write a package-level var,
//     take its address, or call a receiver-mutating method on it.
//     This is the PR 7 touchSink race shape: the racing write lived
//     two calls below LLCScatter in the same package, invisible to
//     any per-function rule. sync/sync-atomic-typed vars and
//     //shardsafe:guarded-marked declarations are exempt, as are
//     &-args to sync/atomic calls.
//
//  2. Goroutine-shared receiver fields. If a hot-reachable method of
//     type T launches goroutines that write T's fields — directly, or
//     by calling receiver-mutating methods on values pulled out of
//     those fields — then T needs a sync.Mutex/RWMutex field, and
//     every exported method of T touching a goroutine-written field
//     must acquire it (len/cap-only touches are exempt). This is the
//     PR 4 engine.Sharded shape: workers mutate controllers behind
//     s.shards while an unlocked Counters() walks the same slice.
//     The channel-sharded engine has since been replaced by a serial
//     loop; testdata/src/sharded keeps its shape as a regression case.
package shardsafe

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"twolm/internal/analysis/lintkit"
)

const (
	// EntryMarker declares a hot entry point: sweep workers or the
	// sharded engine call the marked function on concurrent
	// controllers. The trailing text is a mandatory reason.
	EntryMarker = "hot:entry"
	// GuardMarker declares a package-level var as deliberately shared
	// (externally synchronized or test-only); it exempts the var from
	// check 1. Forbidden in the hot quartet by the guarantee test.
	GuardMarker = "shardsafe:guarded"
)

var Analyzer = &lintkit.Analyzer{
	Name: "shardsafe",
	Doc: "flags package-level state written on //hot:entry-reachable paths and " +
		"goroutine-shared receiver fields accessed without their mutex, so " +
		"concurrent controllers provably share no unsynchronized mutable state",
	Run: run,
}

func run(pass *lintkit.Pass) error {
	mod := pass.Module
	entries := mod.MarkedFuncs(EntryMarker)
	if len(entries) == 0 {
		return nil
	}
	reach := mod.Graph.Reachable(entries)
	writers := receiverWriters(mod)

	for _, fn := range mod.Funcs() {
		if reach[fn] == nil {
			continue
		}
		fd, pkg := mod.FuncDecl(fn)
		if pkg == nil || pkg.Types != pass.Pkg || fd.Body == nil {
			continue
		}
		checkGlobals(pass, mod, fn, fd, pkg, reach, writers)
	}

	checkGoroutines(pass, mod, reach, writers)
	return nil
}

// checkGlobals reports hot-path mutation of package-level vars in one
// function body (check 1).
func checkGlobals(pass *lintkit.Pass, mod *lintkit.Module, fn *types.Func, fd *ast.FuncDecl, pkg *lintkit.Package, reach map[*types.Func]*types.Func, writers map[*types.Func]bool) {
	// &-expressions passed straight to sync/atomic functions are the
	// blessed way to share a plain counter word; collect them first.
	atomicArgs := map[ast.Expr]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		ce, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if se, ok := ast.Unparen(ce.Fun).(*ast.SelectorExpr); ok {
			if f, ok := pkg.Info.Uses[se.Sel].(*types.Func); ok && f.Pkg() != nil && f.Pkg().Path() == "sync/atomic" {
				for _, a := range ce.Args {
					atomicArgs[ast.Unparen(a)] = true
				}
			}
		}
		return true
	})

	report := func(pos token.Pos, v *types.Var, how string) {
		if exemptVar(mod, v) {
			return
		}
		pass.Reportf(pos, "hot path %s package-level var %s (%s); concurrent controllers must not share mutable state — confine it to a receiver or mark the declaration //shardsafe:guarded <reason>",
			how, v.Name(), lintkit.WitnessPath(reach, fn))
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range st.Lhs {
				if v := globalBase(pkg.Info, lhs); v != nil {
					report(lhs.Pos(), v, "writes")
				}
			}
		case *ast.IncDecStmt:
			if v := globalBase(pkg.Info, st.X); v != nil {
				report(st.X.Pos(), v, "writes")
			}
		case *ast.UnaryExpr:
			if st.Op == token.AND && !atomicArgs[st] {
				if v := globalBase(pkg.Info, st.X); v != nil {
					report(st.Pos(), v, "takes the address of")
				}
			}
		case *ast.CallExpr:
			if se, ok := ast.Unparen(st.Fun).(*ast.SelectorExpr); ok {
				if m, ok := pkg.Info.Uses[se.Sel].(*types.Func); ok && writers[m] {
					if v := globalBase(pkg.Info, se.X); v != nil {
						report(se.Pos(), v, "calls the receiver-mutating method "+m.Name()+" on")
					}
				}
			}
		}
		return true
	})
}

// globalBase resolves the base of an lvalue chain (selectors, indexes,
// derefs) to a package-level variable, or nil.
func globalBase(info *types.Info, e ast.Expr) *types.Var {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			v, ok := info.ObjectOf(x).(*types.Var)
			if ok && !v.IsField() && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				return v
			}
			return nil
		case *ast.SelectorExpr:
			// Qualified reference to another package's var.
			if v, ok := info.Uses[x.Sel].(*types.Var); ok && !v.IsField() && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				return v
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// exemptVar reports whether a package-level var is allowed to be
// touched on hot paths: sync primitives and atomics synchronize
// themselves, //shardsafe:guarded declares an audited exception, and
// vars outside the module view (stdlib) are out of scope.
func exemptVar(mod *lintkit.Module, v *types.Var) bool {
	if isSyncPkgType(v.Type()) {
		return true
	}
	pkg := mod.PackageFor(v)
	if pkg == nil {
		return true
	}
	return lintkit.LineDirective(pkg.Fset, pkg.Files, v.Pos(), "//"+GuardMarker)
}

// isSyncPkgType reports whether t (or its pointee) is declared in sync
// or sync/atomic.
func isSyncPkgType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	o := n.Obj()
	return o.Pkg() != nil && (o.Pkg().Path() == "sync" || o.Pkg().Path() == "sync/atomic")
}

// isSyncLock reports whether t is sync.Mutex or sync.RWMutex (possibly
// behind a pointer).
func isSyncLock(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	o := n.Obj()
	return o.Pkg() != nil && o.Pkg().Path() == "sync" && (o.Name() == "Mutex" || o.Name() == "RWMutex")
}

// ---- receiver effect analysis ----

// method is one module method with the context needed to analyze its
// body.
type method struct {
	fn    *types.Func
	fd    *ast.FuncDecl
	pkg   *lintkit.Package
	recv  types.Object // receiver object; nil when unnamed
	named *types.Named
}

// moduleMethods collects every module method with a named receiver.
func moduleMethods(mod *lintkit.Module) []method {
	var out []method
	for _, fn := range mod.Funcs() {
		fd, pkg := mod.FuncDecl(fn)
		if fd == nil || fd.Recv == nil || fd.Body == nil {
			continue
		}
		recv, named := receiverOf(pkg, fd)
		if named == nil {
			continue
		}
		out = append(out, method{fn: fn, fd: fd, pkg: pkg, recv: recv, named: named})
	}
	return out
}

// receiverOf returns the receiver object (nil if unnamed) and the
// receiver's named type for a method declaration.
func receiverOf(pkg *lintkit.Package, fd *ast.FuncDecl) (types.Object, *types.Named) {
	fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return nil, nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil, nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	var obj types.Object
	if f := fd.Recv.List[0]; len(f.Names) > 0 {
		obj = pkg.Info.Defs[f.Names[0]]
	}
	return obj, named
}

// receiverWriters computes, by fixpoint, the set of module methods
// that mutate their own receiver: a direct field write or address
// escape, or a call to another writer on the receiver or on a value
// derived from its fields.
func receiverWriters(mod *lintkit.Module) map[*types.Func]bool {
	methods := moduleMethods(mod)
	writes := map[*types.Func]bool{}
	for changed := true; changed; {
		changed = false
		for _, m := range methods {
			if writes[m.fn] || m.recv == nil {
				continue
			}
			eff := bodyEffects(m.pkg.Info, m.fd.Body, m.recv, m.named, writes)
			if len(eff.fields) > 0 {
				writes[m.fn] = true
				changed = true
				continue
			}
			for _, c := range eff.recvCallees {
				if writes[c] {
					writes[m.fn] = true
					changed = true
					break
				}
			}
		}
	}
	return writes
}

// effects is what one body does to its receiver: the fields it writes
// (bare-receiver writes map to "*"), and the same-type methods it
// invokes directly on the receiver.
type effects struct {
	fields      map[string]bool
	recvCallees []*types.Func
}

// bodyEffects scans body in the context of receiver recv. writers is
// the current receiver-writer set, used to treat a mutating method
// call on a field-derived value (ctrl := s.shards[w]; ctrl.LLCWrite())
// as a write of that field — the exact shape of the PR 4 race.
func bodyEffects(info *types.Info, body ast.Node, recv types.Object, named *types.Named, writers map[*types.Func]bool) effects {
	eff := effects{fields: map[string]bool{}}
	// taint maps locals to the receiver field their value derives from.
	taint := map[types.Object]string{}
	mark := func(f string) {
		if f == "" {
			f = "*"
		}
		eff.fields[f] = true
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range st.Lhs {
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
					obj := info.ObjectOf(id)
					if obj == recv {
						continue // reassigning the receiver ident itself
					}
					if obj != nil && i < len(st.Rhs) {
						if f, on := sourceField(info, st.Rhs[i], recv, taint); on && f != "" {
							taint[obj] = f
						}
					}
					continue
				}
				if f, on := sourceField(info, lhs, recv, taint); on {
					mark(f)
				}
			}
		case *ast.RangeStmt:
			if f, on := sourceField(info, st.X, recv, taint); on && f != "" {
				for _, e := range []ast.Expr{st.Key, st.Value} {
					if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
						if obj := info.ObjectOf(id); obj != nil {
							taint[obj] = f
						}
					}
				}
			}
		case *ast.IncDecStmt:
			if f, on := sourceField(info, st.X, recv, taint); on {
				mark(f)
			}
		case *ast.UnaryExpr:
			if st.Op == token.AND {
				if f, on := sourceField(info, st.X, recv, taint); on && f != "" {
					mark(f)
				}
			}
		case *ast.CallExpr:
			se, ok := ast.Unparen(st.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			callee, ok := info.Uses[se.Sel].(*types.Func)
			if !ok {
				return true
			}
			f, on := sourceField(info, se.X, recv, taint)
			if !on {
				return true
			}
			if f == "" {
				// Method invoked on the bare receiver.
				if sameNamed(callee, named) {
					eff.recvCallees = append(eff.recvCallees, callee)
				}
				return true
			}
			// Method invoked on a value pulled out of a receiver
			// field: a writer mutates state owned by that field.
			if writers[callee] {
				mark(f)
			}
		}
		return true
	})
	return eff
}

// sourceField walks an expression down to its base. It returns the
// receiver field the value derives from and whether the base is the
// receiver (directly or through a tainted local). A bare receiver
// reference returns ("", true).
func sourceField(info *types.Info, e ast.Expr, recv types.Object, taint map[types.Object]string) (string, bool) {
	field := ""
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			obj := info.ObjectOf(x)
			if obj != nil && obj == recv {
				return field, true
			}
			if f, ok := taint[obj]; ok {
				return f, true
			}
			return "", false
		case *ast.SelectorExpr:
			field = x.Sel.Name
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return "", false
		}
	}
}

// sameNamed reports whether fn is a method of named (pointer or value
// receiver).
func sameNamed(fn *types.Func, named *types.Named) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj() == named.Obj()
}

// ---- check 2: goroutine-shared receiver fields ----

type launchInfo struct {
	fields   map[string]bool
	launcher *types.Func
}

// checkGoroutines finds hot-reachable methods that launch goroutines
// mutating receiver fields, then audits the receiver type's lock
// discipline (check 2). Diagnostics are emitted only for declarations
// in pass's package.
func checkGoroutines(pass *lintkit.Pass, mod *lintkit.Module, reach map[*types.Func]*types.Func, writers map[*types.Func]bool) {
	methods := moduleMethods(mod)
	byType := map[*types.Named]*launchInfo{}
	for _, m := range methods {
		if reach[m.fn] == nil || m.recv == nil {
			continue
		}
		ast.Inspect(m.fd.Body, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			fields := goroutineMutations(mod, m, gs, writers)
			if len(fields) > 0 {
				li := byType[m.named]
				if li == nil {
					li = &launchInfo{fields: map[string]bool{}, launcher: m.fn}
					byType[m.named] = li
				}
				for f := range fields {
					li.fields[f] = true
				}
			}
			return true
		})
	}

	audited := map[*types.Named]bool{}
	for _, m := range methods { // methods are in deterministic order; audit each type once
		li := byType[m.named]
		if li == nil || audited[m.named] {
			continue
		}
		audited[m.named] = true
		auditType(pass, mod, m.named, li, methods)
	}
}

// auditType enforces the lock discipline on one goroutine-sharing
// type.
func auditType(pass *lintkit.Pass, mod *lintkit.Module, named *types.Named, li *launchInfo, methods []method) {
	var fields []string
	for f := range li.fields {
		fields = append(fields, f)
	}
	sort.Strings(fields)
	fieldList := strings.Join(fields, ", ")
	launcher := lintkit.FuncDisplayName(li.launcher)

	mu := mutexFieldName(named)
	if mu == "" {
		if named.Obj().Pkg() == pass.Pkg {
			pass.Reportf(named.Obj().Pos(), "goroutines launched in %s write field(s) %s of %s, but the type has no sync.Mutex or sync.RWMutex field to guard them",
				launcher, fieldList, named.Obj().Name())
		}
		return
	}

	for _, m := range methods {
		if m.named.Obj() != named.Obj() || !m.fn.Exported() || m.recv == nil {
			continue
		}
		if m.pkg.Types != pass.Pkg {
			continue
		}
		if !methodTouches(mod, m, li.fields, map[*types.Func]bool{}) {
			continue
		}
		if methodLocks(mod, m, map[*types.Func]bool{}) {
			continue
		}
		pass.Reportf(m.fd.Name.Pos(), "%s touches field(s) %s, written by goroutines launched in %s, without acquiring %s; lock around every access to goroutine-shared fields",
			lintkit.FuncDisplayName(m.fn), fieldList, launcher, mu)
	}
}

// mutexFieldName returns the name of the first sync.Mutex/RWMutex
// field of named's underlying struct, or "".
func mutexFieldName(named *types.Named) string {
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return ""
	}
	for i := 0; i < st.NumFields(); i++ {
		if isSyncLock(st.Field(i).Type()) {
			return st.Field(i).Name()
		}
	}
	return ""
}

// goroutineMutations returns the receiver fields a goroutine launch
// may write: direct writes in the launched closure, plus writes in
// same-type methods the goroutine (transitively) calls on the
// receiver.
func goroutineMutations(mod *lintkit.Module, m method, gs *ast.GoStmt, writers map[*types.Func]bool) map[string]bool {
	fields := map[string]bool{}
	var work []*types.Func
	absorb := func(eff effects) {
		for f := range eff.fields {
			if f == "*" {
				f = "(receiver)"
			}
			fields[f] = true
		}
		work = append(work, eff.recvCallees...)
	}

	if lit, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit); ok {
		absorb(bodyEffects(m.pkg.Info, lit.Body, m.recv, m.named, writers))
	} else if se, ok := ast.Unparen(gs.Call.Fun).(*ast.SelectorExpr); ok {
		if callee, ok := m.pkg.Info.Uses[se.Sel].(*types.Func); ok && sameNamed(callee, m.named) {
			if _, on := sourceField(m.pkg.Info, se.X, m.recv, nil); on {
				work = append(work, callee)
			}
		}
	}

	seen := map[*types.Func]bool{}
	for len(work) > 0 {
		fn := work[0]
		work = work[1:]
		if seen[fn] {
			continue
		}
		seen[fn] = true
		fd, pkg := mod.FuncDecl(fn)
		if fd == nil || fd.Body == nil {
			continue
		}
		recv, named := receiverOf(pkg, fd)
		if recv == nil {
			continue
		}
		absorb(bodyEffects(pkg.Info, fd.Body, recv, named, writers))
	}
	return fields
}

// methodTouches reports whether m (or a same-type method it calls on
// its receiver) reads or writes any of the given fields. Accesses
// that appear only inside len()/cap() arguments are exempt: slice
// headers of goroutine-written fields are stable.
func methodTouches(mod *lintkit.Module, m method, fields map[string]bool, visited map[*types.Func]bool) bool {
	if visited[m.fn] || m.recv == nil {
		return false
	}
	visited[m.fn] = true
	touched := false
	ast.Inspect(m.fd.Body, func(n ast.Node) bool {
		if touched {
			return false
		}
		if ce, ok := n.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(ce.Fun).(*ast.Ident); ok {
				if b, ok := m.pkg.Info.ObjectOf(id).(*types.Builtin); ok && (b.Name() == "len" || b.Name() == "cap") {
					return false // don't descend: len/cap touches are exempt
				}
			}
			if se, ok := ast.Unparen(ce.Fun).(*ast.SelectorExpr); ok {
				if callee, ok := m.pkg.Info.Uses[se.Sel].(*types.Func); ok && sameNamed(callee, m.named) {
					if _, on := sourceField(m.pkg.Info, se.X, m.recv, nil); on {
						if cm, ok := lookupMethod(mod, callee); ok && methodTouches(mod, cm, fields, visited) {
							touched = true
							return false
						}
					}
				}
			}
		}
		if se, ok := n.(*ast.SelectorExpr); ok && fields[se.Sel.Name] {
			if id, ok := baseIdent(se.X); ok && m.pkg.Info.ObjectOf(id) == m.recv {
				touched = true
				return false
			}
		}
		return true
	})
	return touched
}

// methodLocks reports whether m (or a same-type method it calls on its
// receiver) acquires a sync.Mutex/RWMutex held in a receiver field —
// a call to Lock or RLock on a receiver-derived sync value.
func methodLocks(mod *lintkit.Module, m method, visited map[*types.Func]bool) bool {
	if visited[m.fn] || m.recv == nil {
		return false
	}
	visited[m.fn] = true
	locks := false
	ast.Inspect(m.fd.Body, func(n ast.Node) bool {
		if locks {
			return false
		}
		ce, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		se, ok := ast.Unparen(ce.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		callee, ok := m.pkg.Info.Uses[se.Sel].(*types.Func)
		if !ok {
			return true
		}
		if callee.Pkg() != nil && callee.Pkg().Path() == "sync" && (callee.Name() == "Lock" || callee.Name() == "RLock") {
			if _, on := sourceField(m.pkg.Info, se.X, m.recv, nil); on {
				locks = true
				return false
			}
		}
		if sameNamed(callee, m.named) {
			if _, on := sourceField(m.pkg.Info, se.X, m.recv, nil); on {
				if cm, ok := lookupMethod(mod, callee); ok && methodLocks(mod, cm, visited) {
					locks = true
					return false
				}
			}
		}
		return true
	})
	return locks
}

// lookupMethod rebuilds the method context for fn.
func lookupMethod(mod *lintkit.Module, fn *types.Func) (method, bool) {
	fd, pkg := mod.FuncDecl(fn)
	if fd == nil || fd.Body == nil || fd.Recv == nil {
		return method{}, false
	}
	recv, named := receiverOf(pkg, fd)
	if named == nil {
		return method{}, false
	}
	return method{fn: fn, fd: fd, pkg: pkg, recv: recv, named: named}, true
}

// baseIdent unwraps parens, indexes, slices, and derefs down to a base
// identifier.
func baseIdent(e ast.Expr) (*ast.Ident, bool) {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x, true
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil, false
		}
	}
}
