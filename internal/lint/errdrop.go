package lint

import (
	"go/ast"
	"go/types"
)

// checkErrDrop flags silently discarded error returns in simulation-core
// code: a call whose error result is neither consumed nor explicitly
// assigned. The Result.Err discipline (DESIGN §8) converted runtime panics
// into returned errors; an error that is produced and then dropped on the
// floor undoes that work — a failed run-record write or audit step would
// look like success.
//
// Only *implicit* drops are flagged: a call used as a bare statement (or in
// defer/go). An explicit `_ = f()` or `x, _ := f()` is a visible, reviewable
// decision and stays legal. Calls on writers that are documented to never
// return a non-nil error (*bytes.Buffer, *strings.Builder, hash.Hash — and
// fmt.Fprint* into them) are exempt, since threading impossible errors
// through hot paths is pure noise.
func checkErrDrop(pkg *Package, ctx *checkContext) {
	if pkg.Broken {
		return
	}
	for _, fd := range sortedFuncDecls(pkg) {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			var call *ast.CallExpr
			switch s := n.(type) {
			case *ast.ExprStmt:
				call, _ = ast.Unparen(s.X).(*ast.CallExpr)
			case *ast.DeferStmt:
				call = s.Call
			case *ast.GoStmt:
				call = s.Call
			}
			if call == nil {
				return true
			}
			if !returnsError(pkg, call) || infallibleCall(pkg, call) {
				return true
			}
			ctx.reportNode(pkg, call, "discarded error from %s: handle it, assign it explicitly (_ = ...), or waive with //cppelint:errdrop <reason>", callName(call))
			return true
		})
	}
}

// returnsError reports whether the call's result type is or contains error.
func returnsError(pkg *Package, call *ast.CallExpr) bool {
	tv, ok := pkg.Info.Types[call]
	if !ok || tv.Type == nil {
		return false
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if isErrorType(t.At(i).Type()) {
				return true
			}
		}
		return false
	default:
		return isErrorType(t)
	}
}

func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// infallibleCall exempts calls whose error result is documented to always be
// nil: methods on *bytes.Buffer, *strings.Builder, and hash.Hash values, and
// fmt.Fprint* writing into one of those.
func infallibleCall(pkg *Package, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	// fmt.Fprint* into an infallible writer.
	if isPkgIdent(pkg, sel, "fmt") && len(call.Args) > 0 {
		switch sel.Sel.Name {
		case "Fprint", "Fprintf", "Fprintln":
			if tv, ok := pkg.Info.Types[call.Args[0]]; ok && tv.Type != nil {
				return infallibleWriter(tv.Type)
			}
		}
		return false
	}
	// Method call on an infallible writer.
	if s, ok := pkg.Info.Selections[sel]; ok && s.Kind() == types.MethodVal {
		return infallibleWriter(s.Recv())
	}
	return false
}

// infallibleWriter reports whether t is a writer type whose Write/WriteString
// contract promises a nil error.
func infallibleWriter(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	switch named.Obj().Pkg().Path() + "." + named.Obj().Name() {
	case "bytes.Buffer", "strings.Builder", "hash.Hash", "hash.Hash32", "hash.Hash64":
		return true
	}
	return false
}

// callName renders the called function for the diagnostic.
func callName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		if id, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			return id.Name + "." + fun.Sel.Name
		}
		return fun.Sel.Name
	}
	return "call"
}
