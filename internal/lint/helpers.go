package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// calleeOf resolves the static callee of a call expression, or nil when
// the call is through a function value, a conversion, or type-check
// failure left the identifier unresolved.
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// isFunc reports whether f is the package-level function pkgPath.name.
func isFunc(f *types.Func, pkgPath, name string) bool {
	return f != nil && f.Pkg() != nil && f.Pkg().Path() == pkgPath && f.Name() == name &&
		f.Type().(*types.Signature).Recv() == nil
}

// fullName returns f.FullName() ("(*sync.WaitGroup).Add", "time.Sleep")
// or "" for nil.
func fullName(f *types.Func) string {
	if f == nil {
		return ""
	}
	return f.FullName()
}

// funcPkgPath returns the import path of the package defining f.
func funcPkgPath(f *types.Func) string {
	if f == nil || f.Pkg() == nil {
		return ""
	}
	return f.Pkg().Path()
}

// isContextContext reports whether t is context.Context.
func isContextContext(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// implementsError reports whether t satisfies the built-in error
// interface (and is not the untyped nil).
func implementsError(t types.Type) bool {
	if t == nil {
		return false
	}
	if basic, ok := t.(*types.Basic); ok && basic.Kind() == types.UntypedNil {
		return false
	}
	errIface := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	return types.Implements(t, errIface)
}

// inspectNoFuncLit walks n in depth-first order like ast.Inspect but
// does not descend into function literals: statements inside a closure
// execute on the closure's schedule, not the enclosing function's.
func inspectNoFuncLit(n ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		return fn(m)
	})
}

// forEachFunc invokes fn for every function body in the package: every
// FuncDecl with a body and every FuncLit. decl is non-nil only for the
// FuncDecl case.
func forEachFunc(p *Package, fn func(decl *ast.FuncDecl, body *ast.BlockStmt)) {
	for _, f := range p.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				fn(fd, fd.Body)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				fn(nil, lit.Body)
			}
			return true
		})
	}
}

// forEachVarInit calls fn for every initialiser expression of a
// package-level var declaration: code that runs at package
// initialisation, outside every function body.
func forEachVarInit(p *Package, fn func(ast.Expr)) {
	for _, f := range p.Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				for _, v := range spec.(*ast.ValueSpec).Values {
					fn(v)
				}
			}
		}
	}
}
