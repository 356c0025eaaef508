// Package ctrmut fences counter mutation behind the controller. The
// imc.Counters bookkeeping is the model's ground truth, so a field
// increment is legal only in three shapes:
//
//   - inside a Controller or Counters method in the counters' own
//     package (the Figure 3 decision flow and the Add/Sub pipeline),
//   - through a function-local accumulator in the counters' own
//     package (the batched range paths' `var d Counters ... flush`
//     pattern),
//   - through a field or variable explicitly declared as an
//     accumulator with a trailing `//ctrmut:accumulator <reason>`
//     marker in the package that declares it (the counters of core's
//     flatMemory, the 1LM memory), which keeps cross-package
//     exceptions auditable.
//
// Everything else — an ad-hoc `ctrl.Counters().X++` from another
// package, a stray fixup in an experiment — is a lint error, because
// a mutation the differential tests don't know about is exactly how
// parallel-vs-serial counter exactness rots.
package ctrmut

import (
	"go/ast"
	"go/types"

	"twolm/internal/analysis/lintkit"
)

// Analyzer is the ctrmut analyzer.
var Analyzer = &lintkit.Analyzer{
	Name: "ctrmut",
	Doc: "imc.Counters fields may be mutated only in Controller/Counters " +
		"methods, package-local accumulators, or //ctrmut:accumulator-" +
		"declared fields; no ad-hoc counter writes from other packages",
	Run: run,
}

func run(pass *lintkit.Pass) error {
	for _, f := range pass.Files {
		if pass.InTestFile(f) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			inAllowedMethod := allowedReceiver(pass, fd)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch s := n.(type) {
				case *ast.IncDecStmt:
					check(pass, s.X, inAllowedMethod)
				case *ast.AssignStmt:
					for _, lhs := range s.Lhs {
						check(pass, lhs, inAllowedMethod)
					}
				}
				return true
			})
		}
	}
	return nil
}

// allowedReceiver reports whether fd is a method whose receiver is
// the Controller or Counters of the package under analysis.
func allowedReceiver(pass *lintkit.Pass, fd *ast.FuncDecl) bool {
	if fd.Recv == nil || len(fd.Recv.List) != 1 {
		return false
	}
	t := pass.TypesInfo.TypeOf(fd.Recv.List[0].Type)
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	name := n.Obj().Name()
	return (name == "Controller" || name == "Counters") && n.Obj().Pkg() == pass.Pkg
}

// check flags target if it mutates a field of a Counters struct
// declared in a package named imc without a valid allowance.
func check(pass *lintkit.Pass, target ast.Expr, inAllowedMethod bool) {
	se, ok := target.(*ast.SelectorExpr)
	if !ok {
		return
	}
	sel, ok := pass.TypesInfo.Selections[se]
	if !ok || sel.Kind() != types.FieldVal {
		return
	}
	owner := countersOwner(sel.Recv())
	if owner == nil {
		return
	}
	samePkg := owner.Obj().Pkg() == pass.Pkg

	if inAllowedMethod && samePkg {
		return
	}
	if samePkg && localAccumulator(pass, se.X, owner) {
		return
	}
	if declaredAccumulator(pass, se.X) {
		return
	}
	pass.Reportf(se.Sel.Pos(),
		"counter field %s.%s mutated outside the counter pipeline; counters change only via Controller/Counters methods, a package-local accumulator, or a //ctrmut:accumulator-declared field",
		owner.Obj().Pkg().Name(), sel.Obj().Name())
}

// countersOwner returns the named type if t is (a pointer to) a
// struct named Counters declared in a package named imc.
func countersOwner(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Name() != "Counters" {
		return nil
	}
	if _, ok := n.Underlying().(*types.Struct); !ok {
		return nil
	}
	if pkg := n.Obj().Pkg(); pkg == nil || pkg.Name() != "imc" {
		return nil
	}
	return n
}

// localAccumulator reports whether base is a function-local variable
// (or pointer parameter) of the Counters type — the `var d Counters`
// flush pattern and the `ctr *Counters` helper-parameter pattern.
func localAccumulator(pass *lintkit.Pass, base ast.Expr, owner *types.Named) bool {
	id, ok := base.(*ast.Ident)
	if !ok {
		return false
	}
	obj, ok := pass.TypesInfo.Uses[id].(*types.Var)
	if !ok || obj.IsField() {
		return false
	}
	// Package-scope vars are not local accumulators.
	if obj.Parent() == pass.Pkg.Scope() {
		return false
	}
	t := obj.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj() == owner.Obj()
}

// declaredAccumulator reports whether the base of the mutated
// selector resolves to a field or variable whose declaration carries
// a //ctrmut:accumulator marker in the package under analysis.
func declaredAccumulator(pass *lintkit.Pass, base ast.Expr) bool {
	var obj types.Object
	switch b := base.(type) {
	case *ast.Ident:
		obj = pass.TypesInfo.Uses[b]
	case *ast.SelectorExpr:
		if sel, ok := pass.TypesInfo.Selections[b]; ok {
			obj = sel.Obj()
		} else {
			obj = pass.TypesInfo.Uses[b.Sel]
		}
	default:
		return false
	}
	if obj == nil || obj.Pkg() != pass.Pkg {
		return false
	}
	return lintkit.LineDirective(pass.Fset, pass.Files, obj.Pos(), "ctrmut:accumulator")
}
