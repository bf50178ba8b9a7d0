package lint

import (
	"go/ast"
	"go/types"
	"slices"
	"sort"
)

// checkReachability reports every library function that nothing in the
// shipped program can run. A function is reached when a path in the
// module call graph leads to it from a root:
//
//   - every function of a main package (commands are judged by their
//     authors; the rule judges the libraries they share);
//   - every init, and every function a package-level var initialiser
//     mentions, since both run at package initialisation;
//   - the exported functions, and the exported methods of exported
//     types, of the root hayat package: the public library API;
//   - every method implementing an interface declared outside the
//     module (fmt.Stringer, sort.Interface, http.Handler, the
//     universe's error, ...), plus Unwrap, Is and As on error types,
//     which package errors calls through unnamed interfaces: the
//     standard library dispatches to them where the graph cannot see;
//   - every function whose doc comment carries
//     //lint:ignore reachability <why>: it is kept on purpose, so what
//     it calls is reached too.
//
// Test files are not loaded, so code only tests use is unreached. It
// belongs in a _test.go file of its package, or, when another package's
// tests need it, carries the directive naming them. With no main
// package loaded there is nothing to measure from and the rule is
// silent.
func checkReachability(pkgs []*Package, r *Reporter) {
	if !slices.ContainsFunc(pkgs, (*Package).Main) {
		return
	}
	g := BuildCallGraph(pkgs)
	reached := g.Reachable(reachabilityRoots(g, pkgs))

	var dead []*CallNode
	for fn, node := range g.nodes {
		if _, ok := reached[fn]; !ok {
			dead = append(dead, node)
		}
	}
	sort.Slice(dead, func(i, j int) bool { return dead[i].Decl.Pos() < dead[j].Decl.Pos() })
	for _, node := range dead {
		r.Reportf(node.Decl.Pos(),
			"%s is reached by no command, init, package-level initialiser or exported hayat API; delete it, move it into a _test.go file of its package, or keep it with //lint:ignore reachability <which tests need it>",
			shortFuncName(node.Fn))
	}
}

// reachabilityRoots collects the roots listed on checkReachability.
func reachabilityRoots(g *CallGraph, pkgs []*Package) []*types.Func {
	var roots []*types.Func
	add := func(f *types.Func) { roots = append(roots, f) }
	for fn, node := range g.nodes {
		switch {
		case node.Pkg.Main(),
			node.Decl.Recv == nil && fn.Name() == "init",
			moduleRootPackage(node.Pkg) && exportedAPI(fn),
			keptForReachability(node.Decl):
			add(fn)
		}
	}
	for _, p := range pkgs {
		forEachVarInit(p, func(e ast.Expr) { g.mentions(p, e, add) })
	}
	for _, f := range externalInterfaceMethods(g, pkgs) {
		add(f)
	}
	return roots
}

// exportedAPI reports whether fn is exported and, for a method, whether
// its receiver type is exported too.
func exportedAPI(fn *types.Func) bool {
	if !fn.Exported() {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return true
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Exported()
}

// keptForReachability reports whether decl's doc comment carries a
// well-formed //lint:ignore reachability directive.
func keptForReachability(decl *ast.FuncDecl) bool {
	if decl.Doc == nil {
		return false
	}
	for _, c := range decl.Doc.List {
		if fields, ok := ignoreDirective(c); ok && len(fields) >= 2 && fields[0] == "reachability" {
			return true
		}
	}
	return false
}

// externalInterfaceMethods returns the methods of module types that
// implement an interface declared outside the module: the universe's
// error and every non-empty interface in the scope of a non-module
// package the module imports. Error types also contribute Unwrap, Is
// and As, which package errors finds through unnamed interfaces.
func externalInterfaceMethods(g *CallGraph, pkgs []*Package) []*types.Func {
	errIface := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	module := make(map[*types.Package]bool)
	for _, p := range pkgs {
		module[p.Types] = true
	}
	ifaces := []*types.Interface{errIface}
	seen := make(map[*types.Package]bool)
	for _, p := range pkgs {
		for _, imp := range p.Types.Imports() {
			if module[imp] || seen[imp] {
				continue
			}
			seen[imp] = true
			scope := imp.Scope()
			for _, name := range scope.Names() {
				tn, ok := scope.Lookup(name).(*types.TypeName)
				if !ok {
					continue
				}
				if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
					continue
				}
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			}
		}
	}

	var out []*types.Func
	lookup := func(t types.Type, pkg *types.Package, name string) {
		obj, _, _ := types.LookupFieldOrMethod(t, true, pkg, name)
		if f, ok := obj.(*types.Func); ok {
			out = append(out, f)
		}
	}
	for _, named := range g.named {
		ptr := types.NewPointer(named)
		for _, it := range ifaces {
			if !types.Implements(ptr, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				lookup(ptr, m.Pkg(), m.Name())
			}
		}
		if types.Implements(ptr, errIface) {
			for _, name := range []string{"Unwrap", "Is", "As"} {
				lookup(ptr, named.Obj().Pkg(), name)
			}
		}
	}
	return out
}

// shortFuncName renders fn with package names instead of import paths:
// "floorplan.MaxOnCores", "(*thermal.Model).SteadyStateChecked".
func shortFuncName(fn *types.Func) string {
	qual := func(p *types.Package) string { return p.Name() }
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		return "(" + types.TypeString(recv.Type(), qual) + ")." + fn.Name()
	}
	return fn.Pkg().Name() + "." + fn.Name()
}
