// Package counterdrift enforces the repro's counting-exactness
// contract at build time: every field of a Counters struct must flow
// through the whole snapshot pipeline — field-wise Add, clamped Sub,
// and the String rendering — and every Merge-style aggregator must
// either delegate to Add or touch every field itself.
//
// The invariant this encodes is the paper's headline property: the
// serial controller, its line-interleaved channel split, and the
// batched range paths must produce byte-identical imc.Counters. A new
// counter field that is bumped on the request path but missing from
// Add is exactly the kind of silent split-vs-serial divergence the
// differential tests can only catch if a workload happens to exercise
// it; counterdrift makes it a lint failure on every build.
package counterdrift

import (
	"go/ast"
	"go/types"

	"twolm/internal/analysis/lintkit"
)

// Analyzer is the counterdrift analyzer.
var Analyzer = &lintkit.Analyzer{
	Name: "counterdrift",
	Doc: "every Counters field must be referenced in Add, Sub, and String, " +
		"and Merge* aggregators must use Add or touch every field; guards " +
		"byte-identical counters across serial, channel-split, and batched paths",
	Run: run,
}

// methods whose bodies must reference every counter field.
var requiredMethods = []string{"Add", "Sub", "String"}

func run(pass *lintkit.Pass) error {
	named, fields := localCounters(pass)
	if named != nil {
		checkMethods(pass, named, fields)
	}
	checkMergers(pass)
	return nil
}

// localCounters returns the package's own Counters struct type and
// its field objects, or nil if the package does not declare one.
func localCounters(pass *lintkit.Pass) (*types.Named, []*types.Var) {
	obj, ok := pass.Pkg.Scope().Lookup("Counters").(*types.TypeName)
	if !ok {
		return nil, nil
	}
	named, ok := obj.Type().(*types.Named)
	if !ok {
		return nil, nil
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return nil, nil
	}
	fields := make([]*types.Var, 0, st.NumFields())
	for i := 0; i < st.NumFields(); i++ {
		fields = append(fields, st.Field(i))
	}
	return named, fields
}

func checkMethods(pass *lintkit.Pass, named *types.Named, fields []*types.Var) {
	found := map[string]*ast.FuncDecl{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil {
				continue
			}
			if receiverNamed(pass, fd) == named.Obj() {
				found[fd.Name.Name] = fd
			}
		}
	}
	for _, name := range requiredMethods {
		fd, ok := found[name]
		if !ok {
			pass.Reportf(named.Obj().Pos(),
				"Counters has no %s method; counters must support field-wise Add, clamped Sub, and a String snapshot", name)
			continue
		}
		touched := fieldsReferenced(pass, fd.Body, fields)
		for _, fv := range fields {
			if !touched[fv] {
				pass.Reportf(fv.Pos(),
					"counter field %s is not referenced in Counters.%s; a field outside the %s path silently diverges between the serial, channel-split, and batched paths",
					fv.Name(), name, name)
			}
		}
	}
}

// checkMergers enforces the aggregation rule on Merge* functions,
// which may aggregate a Counters type imported from another package
// (engine.MergeCounters over imc.Counters).
func checkMergers(pass *lintkit.Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || len(fd.Name.Name) < 5 || fd.Name.Name[:5] != "Merge" {
				continue
			}
			named := countersInSignature(pass, fd)
			if named == nil {
				continue
			}
			if callsAdd(pass, fd.Body, named) {
				continue
			}
			st := named.Underlying().(*types.Struct)
			fields := make([]*types.Var, 0, st.NumFields())
			for i := 0; i < st.NumFields(); i++ {
				fields = append(fields, st.Field(i))
			}
			touched := fieldsReferenced(pass, fd.Body, fields)
			for _, fv := range fields {
				if !touched[fv] {
					pass.Reportf(fd.Name.Pos(),
						"%s aggregates %s.Counters without calling Add and without referencing field %s; drifted merges break parallel-vs-serial counter exactness",
						fd.Name.Name, named.Obj().Pkg().Name(), fv.Name())
				}
			}
		}
	}
}

// receiverNamed resolves a method's receiver base type object.
func receiverNamed(pass *lintkit.Pass, fd *ast.FuncDecl) *types.TypeName {
	if len(fd.Recv.List) != 1 {
		return nil
	}
	t := pass.TypesInfo.TypeOf(fd.Recv.List[0].Type)
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj()
	}
	return nil
}

// fieldsReferenced reports which of the given field objects appear as
// selections anywhere in body.
func fieldsReferenced(pass *lintkit.Pass, body *ast.BlockStmt, fields []*types.Var) map[*types.Var]bool {
	want := map[types.Object]bool{}
	for _, fv := range fields {
		want[fv] = true
	}
	out := map[*types.Var]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		se, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		sel, ok := pass.TypesInfo.Selections[se]
		if !ok || sel.Kind() != types.FieldVal {
			return true
		}
		if want[sel.Obj()] {
			out[sel.Obj().(*types.Var)] = true
		}
		return true
	})
	return out
}

// callsAdd reports whether body calls an Add method on the given
// Counters type.
func callsAdd(pass *lintkit.Pass, body *ast.BlockStmt, named *types.Named) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		ce, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		se, ok := ce.Fun.(*ast.SelectorExpr)
		if !ok || se.Sel.Name != "Add" {
			return true
		}
		if isCounters(pass.TypesInfo.TypeOf(se.X), named) {
			found = true
		}
		return true
	})
	return found
}

// countersInSignature returns the named Counters type mentioned in a
// function's parameters or results, unwrapping pointers, slices, and
// variadics.
func countersInSignature(pass *lintkit.Pass, fd *ast.FuncDecl) *types.Named {
	sig, ok := pass.TypesInfo.TypeOf(fd.Name).(*types.Signature)
	if !ok {
		return nil
	}
	check := func(tup *types.Tuple) *types.Named {
		for i := 0; i < tup.Len(); i++ {
			if n := countersNamed(tup.At(i).Type()); n != nil {
				return n
			}
		}
		return nil
	}
	if n := check(sig.Params()); n != nil {
		return n
	}
	return check(sig.Results())
}

// countersNamed unwraps t and returns it if it is a struct type named
// Counters.
func countersNamed(t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Slice:
			t = u.Elem()
		default:
			if n, ok := t.(*types.Named); ok && n.Obj().Name() == "Counters" {
				if _, ok := n.Underlying().(*types.Struct); ok {
					return n
				}
			}
			return nil
		}
	}
}

// isCounters reports whether t is (a pointer to) the given named type.
func isCounters(t types.Type, named *types.Named) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj() == named.Obj()
}
