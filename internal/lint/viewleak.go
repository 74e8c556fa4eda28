package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// checkViewLeak enforces the MachineView read-only contract (DESIGN §13) on
// ViewBinder implementations with escape analysis instead of the policytest
// kit's runtime sampling:
//
//   - the view itself may be stored exactly once, into a field of the
//     receiver, inside BindView. Storing it into a package-level variable, or
//     into a field from any other method, hides machine state where the
//     conformance kit cannot see it;
//   - the RecentEvictions window is the view's reused buffer, valid only
//     until the next call; retaining it in a field or package-level
//     variable keeps a slice whose contents the next call rewrites, hidden
//     state that no longer says what the policy read;
//   - writing through the returned window (element assignment) is always a
//     bug: the machine never reads the buffer back and the next call
//     overwrites it, so the policy is talking to itself.
//
// The analysis is package-local over every function body, not just methods of
// binder types: a leak through a helper function is still a leak.
func checkViewLeak(pkg *Package, ctx *checkContext) {
	if pkg.Broken {
		return
	}
	viewType := machineViewType(pkg, ctx.prog)
	if viewType == nil {
		return
	}
	for _, fd := range sortedFuncDecls(pkg) {
		vl := &viewLeakScan{pkg: pkg, ctx: ctx, view: viewType, fn: fd}
		vl.run()
	}
}

// machineViewType resolves the policy.MachineView interface type if the
// program includes the policy package (directly in fixtures, transitively in
// the real tree). Fixture programs may carry their own package named
// "policy" declaring a MachineView interface; suffix matching accepts both.
func machineViewType(pkg *Package, prog *Program) types.Type {
	for _, p := range prog.pkgs {
		if p.Name != "policy" && !strings.HasSuffix(p.ImportPath, "/policy") {
			continue
		}
		if obj, ok := p.Types.Scope().Lookup("MachineView").(*types.TypeName); ok {
			if types.IsInterface(obj.Type()) {
				return obj.Type()
			}
		}
	}
	return nil
}

// viewLeakScan analyzes one function body.
type viewLeakScan struct {
	pkg  *Package
	ctx  *checkContext
	view types.Type
	fn   *ast.FuncDecl

	// windowVars are locals directly bound to a RecentEvictions() result in
	// this body; writes through or retention of them are leaks.
	windowVars map[types.Object]bool
}

func (vl *viewLeakScan) run() {
	vl.windowVars = make(map[types.Object]bool)
	inBindView := vl.fn.Name.Name == "BindView"
	ast.Inspect(vl.fn.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			vl.assign(s, inBindView)
		case *ast.RangeStmt:
			// for i := range recs / for _, r := range recs is a read; fine.
		case *ast.IncDecStmt:
			if vl.isWindowElem(s.X) {
				vl.ctx.reportNode(vl.pkg, s, "write through the RecentEvictions window: it is the view's reused buffer, which the machine never reads back and the next call overwrites (DESIGN §13 read-only contract)")
			}
		}
		return true
	})
}

// assign checks one assignment statement for the three leak shapes.
func (vl *viewLeakScan) assign(s *ast.AssignStmt, inBindView bool) {
	for i, lhs := range s.Lhs {
		var rhs ast.Expr
		if len(s.Rhs) == len(s.Lhs) {
			rhs = s.Rhs[i]
		} else if len(s.Rhs) == 1 {
			rhs = s.Rhs[0]
		}
		// Track locals bound to a fresh window.
		if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && rhs != nil && vl.isWindowCall(rhs) {
			if obj := vl.objOf(id); obj != nil {
				vl.windowVars[obj] = true
			}
		}
		// Writes through a window (recs[i] = x, recs[i].Untouch = n).
		if vl.isWindowElem(lhs) {
			vl.ctx.reportNode(vl.pkg, s, "write through the RecentEvictions window: it is the view's reused buffer, which the machine never reads back and the next call overwrites (DESIGN §13 read-only contract)")
			continue
		}
		retained, kind := vl.retentionTarget(lhs)
		if !retained || rhs == nil {
			continue
		}
		switch {
		case vl.isWindowCall(rhs) || vl.isWindowVar(rhs):
			vl.ctx.reportNode(vl.pkg, s, "RecentEvictions window retained in a %s: the slice is the view's reused buffer, valid only until the next call — copy what you need or waive with //cppelint:viewleak <reason>", kind)
		case vl.isViewTyped(rhs):
			if kind == "package-level variable" {
				vl.ctx.reportNode(vl.pkg, s, "MachineView stored in a package-level variable: the view must live only in the bound policy (DESIGN §13)")
			} else if !inBindView {
				vl.ctx.reportNode(vl.pkg, s, "MachineView stored in a field outside BindView: the view is bound exactly once, at machine construction (DESIGN §13)")
			}
		}
	}
}

// retentionTarget classifies an assignment target that outlives the call:
// a struct field or a package-level variable.
func (vl *viewLeakScan) retentionTarget(lhs ast.Expr) (bool, string) {
	switch t := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		if sel, ok := vl.pkg.Info.Selections[t]; ok && sel.Kind() == types.FieldVal {
			return true, "struct field"
		}
		// Qualified package-level var (otherpkg.Var).
		if v, ok := vl.pkg.Info.Uses[t.Sel].(*types.Var); ok && v.Parent() != nil && v.Parent().Parent() == types.Universe {
			return true, "package-level variable"
		}
	case *ast.Ident:
		if v, ok := vl.objOf(t).(*types.Var); ok && v.Parent() != nil && v.Parent().Parent() == types.Universe {
			return true, "package-level variable"
		}
	}
	return false, ""
}

// isWindowCall reports whether e is a call of RecentEvictions on a
// MachineView-typed receiver.
func (vl *viewLeakScan) isWindowCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "RecentEvictions" {
		return false
	}
	tv, ok := vl.pkg.Info.Types[sel.X]
	return ok && tv.Type != nil && types.AssignableTo(tv.Type, vl.view)
}

// isWindowVar reports whether e is (or slices) a tracked window local.
func (vl *viewLeakScan) isWindowVar(e ast.Expr) bool {
	switch t := ast.Unparen(e).(type) {
	case *ast.Ident:
		return vl.windowVars[vl.objOf(t)]
	case *ast.SliceExpr:
		return vl.isWindowVar(t.X)
	}
	return false
}

// isWindowElem reports whether e indexes into a tracked window local
// (recs[i], recs[i].Field).
func (vl *viewLeakScan) isWindowElem(e ast.Expr) bool {
	switch t := ast.Unparen(e).(type) {
	case *ast.IndexExpr:
		return vl.isWindowVar(t.X)
	case *ast.SelectorExpr:
		return vl.isWindowElem(t.X)
	}
	return false
}

// isViewTyped reports whether e's static type is the MachineView interface.
func (vl *viewLeakScan) isViewTyped(e ast.Expr) bool {
	tv, ok := vl.pkg.Info.Types[e]
	return ok && tv.Type != nil && types.Identical(tv.Type, vl.view)
}

// objOf resolves an identifier to its object (definition or use).
func (vl *viewLeakScan) objOf(id *ast.Ident) types.Object {
	if obj := vl.pkg.Info.Defs[id]; obj != nil {
		return obj
	}
	return vl.pkg.Info.Uses[id]
}
