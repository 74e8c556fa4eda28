// Whole-program view for the semantic analyzers. The per-check passes of
// checks.go are file-local; viewleak and detreach reason about
// declarations, call graphs, and data flow that cross file and package
// boundaries, so they work against a Program: every module-local package the
// loader has type-checked (lint targets plus transitive imports), indexed by
// function so a *types.Func resolves to its declaration anywhere in the
// module.
package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// Program is the type-checked module-local package graph plus the function
// and call-graph indexes the semantic analyzers share. It is built once per
// Runner.LintDirs call, after every target (and therefore every transitive
// module-local dependency) has been loaded.
type Program struct {
	loader *Loader
	pkgs   []*Package          // all module-local packages, sorted by import path
	byPath map[string]*Package // import path -> package

	funcs   map[*types.Func]*funcBody     // declared functions with bodies
	callees map[*types.Func][]*types.Func // static call graph, memoized
	impls   map[string][]*types.Func      // interface method key -> implementations
}

// funcBody locates one function declaration inside the program.
type funcBody struct {
	pkg  *Package
	file *ast.File
	decl *ast.FuncDecl
}

// newProgram indexes every healthy module-local package known to the loader.
func newProgram(l *Loader) *Program {
	prog := &Program{
		loader:  l,
		byPath:  make(map[string]*Package),
		funcs:   make(map[*types.Func]*funcBody),
		callees: make(map[*types.Func][]*types.Func),
		impls:   make(map[string][]*types.Func),
	}
	for _, pkg := range l.Packages() {
		if pkg.Broken {
			continue
		}
		prog.pkgs = append(prog.pkgs, pkg)
		prog.byPath[pkg.ImportPath] = pkg
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					prog.funcs[obj] = &funcBody{pkg: pkg, file: f, decl: fd}
				}
			}
		}
	}
	return prog
}

// packageOf returns the program package declaring fn, or nil for functions
// without a module-local body (standard library, interface methods).
func (p *Program) packageOf(fn *types.Func) *Package {
	if fb := p.funcs[fn]; fb != nil {
		return fb.pkg
	}
	return nil
}

// calleesOf returns the functions fn statically calls, in source order:
// direct calls, method calls, and — for calls through an interface — every
// module-local concrete implementation of the interface method (the sound
// over-approximation a reachability pass needs). Results are memoized.
func (p *Program) calleesOf(fn *types.Func) []*types.Func {
	if out, ok := p.callees[fn]; ok {
		return out
	}
	p.callees[fn] = nil // cycle guard for the memo map only; walks re-enter freely
	fb := p.funcs[fn]
	if fb == nil {
		return nil
	}
	var out []*types.Func
	seen := make(map[*types.Func]bool)
	add := func(f *types.Func) {
		if f != nil && !seen[f] {
			seen[f] = true
			out = append(out, f)
		}
	}
	ast.Inspect(fb.decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, target := range p.resolveCall(fb.pkg, call) {
			add(target)
		}
		return true
	})
	p.callees[fn] = out
	return out
}

// resolveCall resolves one call expression to its static targets. A call on
// an interface-typed receiver fans out to every module-local implementation.
func (p *Program) resolveCall(pkg *Package, call *ast.CallExpr) []*types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := pkg.Info.Uses[fun].(*types.Func); ok {
			return []*types.Func{f}
		}
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[fun]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				if types.IsInterface(sel.Recv()) {
					return p.implementationsOf(sel.Recv(), f.Name())
				}
				return []*types.Func{f}
			}
			return nil
		}
		// Qualified identifier (otherpkg.Func) or method expression.
		if f, ok := pkg.Info.Uses[fun.Sel].(*types.Func); ok {
			return []*types.Func{f}
		}
	}
	return nil
}

// implementationsOf returns the concrete module-local methods implementing
// the named method of an interface type, sorted for deterministic walks.
func (p *Program) implementationsOf(iface types.Type, method string) []*types.Func {
	key := types.TypeString(iface, nil) + "." + method
	if out, ok := p.impls[key]; ok {
		return out
	}
	it, ok := iface.Underlying().(*types.Interface)
	if !ok {
		p.impls[key] = nil
		return nil
	}
	var out []*types.Func
	for _, pkg := range p.pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			ptr := types.NewPointer(named)
			if !types.Implements(ptr, it) {
				continue
			}
			obj, _, _ := types.LookupFieldOrMethod(ptr, true, pkg.Types, method)
			if m, ok := obj.(*types.Func); ok && p.funcs[m] != nil {
				out = append(out, m)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return qualifiedName(out[i]) < qualifiedName(out[j]) })
	p.impls[key] = out
	return out
}

// qualifiedName renders a function as pkg.Func or pkg.(Type).Method for
// diagnostics and deterministic ordering.
func qualifiedName(fn *types.Func) string {
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Name() + "."
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		t := sig.Recv().Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return pkg + named.Obj().Name() + "." + fn.Name()
		}
	}
	return pkg + fn.Name()
}

// isSimCorePath reports whether importPath is one of the simulation-core
// packages under the determinism contract (internal/<name> for a simCore
// name). Those packages are linted directly by the per-package passes;
// detreach treats everything else in the module as "downstream".
func (p *Program) isSimCorePath(importPath string) bool {
	rest, ok := strings.CutPrefix(importPath, p.loader.ModulePath+"/internal/")
	if !ok {
		return false
	}
	for _, name := range simCore {
		if rest == name {
			return true
		}
	}
	return false
}

// sortedFuncDecls returns pkg's function declarations in file/position order
// paired with their type objects, for deterministic per-package walks.
func sortedFuncDecls(pkg *Package) []*ast.FuncDecl {
	var decls []*ast.FuncDecl
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				decls = append(decls, fd)
			}
		}
	}
	sort.Slice(decls, func(i, j int) bool { return decls[i].Pos() < decls[j].Pos() })
	return decls
}

// funcObj returns the type object of a function declaration in pkg.
func funcObj(pkg *Package, fd *ast.FuncDecl) *types.Func {
	obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
	return obj
}
