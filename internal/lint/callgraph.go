package lint

import (
	"go/ast"
	"go/types"
)

// CallGraph is a module-wide over-approximation of "who can run whom",
// built from the typed ASTs of every loaded package. Nodes are the
// functions and methods declared in the module; edges are
//
//   - static calls (identifier or selector resolving to a declared
//     function),
//   - function references (a declared function mentioned anywhere in a
//     body — passed as a callback, stored in a field, launched with go
//     or defer — is assumed callable from the mentioning function), and
//   - interface dispatch (a call through an interface method fans out to
//     that method on every module type implementing the interface).
//
// Function literals do not get their own nodes: a closure's body is
// attributed to the function that lexically declares it, because the
// closure can only exist — and therefore only run — once its declarer
// has. This over-approximates (the closure may run on another
// goroutine's schedule) but never misses a path, which is the right
// trade for taint analysis.
//
// Known approximations (see DESIGN.md §14): calls through non-interface
// function values received as parameters are covered only by the
// reference edges at the value's creation site, not at the call site;
// reflection and linkname tricks are invisible (the module uses
// neither).
type CallGraph struct {
	nodes map[*types.Func]*CallNode
	// implementers memoizes interface-method fan-out by abstract method.
	implementers map[*types.Func][]*types.Func
	// named is every named (non-interface) type declared in the module,
	// for interface-dispatch resolution.
	named []*types.Named
}

// CallNode is one declared module function with its outgoing edges.
type CallNode struct {
	Fn   *types.Func
	Pkg  *Package
	Decl *ast.FuncDecl
	// Callees holds the outgoing edges, deduplicated, in first-seen
	// order. Every element has a node in the graph.
	Callees []*types.Func
}

// BuildCallGraph indexes every function declaration across pkgs and
// resolves its edges. Packages must come from one Load (shared FileSet).
func BuildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{
		nodes:        make(map[*types.Func]*CallNode),
		implementers: make(map[*types.Func][]*types.Func),
	}

	// Pass 1: nodes and the named-type universe.
	for _, p := range pkgs {
		if p.Types != nil {
			scope := p.Types.Scope()
			for _, name := range scope.Names() {
				if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
					if named, ok := tn.Type().(*types.Named); ok && !types.IsInterface(named) {
						g.named = append(g.named, named)
					}
				}
			}
		}
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := p.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue // type-check failure left the decl unresolved
				}
				g.nodes[origin(obj)] = &CallNode{Fn: origin(obj), Pkg: p, Decl: fd}
			}
		}
	}

	// Pass 2: edges.
	for _, node := range g.nodes {
		g.resolveEdges(node)
	}
	return g
}

// origin maps an instantiated generic function or method back to its
// declared form, which is what the node index is keyed by.
func origin(f *types.Func) *types.Func {
	if o := f.Origin(); o != nil {
		return o
	}
	return f
}

// resolveEdges walks node's body — closures included — and records every
// module function it could run.
func (g *CallGraph) resolveEdges(node *CallNode) {
	p := node.Pkg
	seen := make(map[*types.Func]bool)
	add := func(f *types.Func) {
		f = origin(f)
		if f == nil || seen[f] {
			return
		}
		if _, ok := g.nodes[f]; ok {
			seen[f] = true
			node.Callees = append(node.Callees, f)
		}
	}
	g.mentions(p, node.Decl, add)
}

// mentions calls add for every function n mentions. Any mention of a
// declared function counts as a reference edge (direct calls are a
// subset of mentions); a mention of an interface method fans out to its
// module implementers.
func (g *CallGraph) mentions(p *Package, n ast.Node, add func(*types.Func)) {
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if f, ok := p.Info.Uses[id].(*types.Func); ok {
				if abstractInterfaceMethod(f) {
					for _, impl := range g.resolveInterface(f) {
						add(impl)
					}
				} else {
					add(f)
				}
			}
		}
		return true
	})
}

// abstractInterfaceMethod reports whether f is declared on an interface,
// i.e. a call through it dispatches dynamically.
func abstractInterfaceMethod(f *types.Func) bool {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return types.IsInterface(sig.Recv().Type())
}

// resolveInterface fans an abstract interface method out to the
// same-named method on every module type implementing the interface.
func (g *CallGraph) resolveInterface(m *types.Func) []*types.Func {
	m = origin(m)
	if impls, ok := g.implementers[m]; ok {
		return impls
	}
	var iface *types.Interface
	if sig, ok := m.Type().(*types.Signature); ok && sig.Recv() != nil {
		iface, _ = sig.Recv().Type().Underlying().(*types.Interface)
	}
	var impls []*types.Func
	if iface != nil {
		for _, named := range g.named {
			if !types.Implements(named, iface) && !types.Implements(types.NewPointer(named), iface) {
				continue
			}
			obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(named), true, m.Pkg(), m.Name())
			if f, ok := obj.(*types.Func); ok {
				impls = append(impls, origin(f))
			}
		}
	}
	g.implementers[m] = impls
	return impls
}

// Reachable runs a breadth-first traversal from entries and returns, for
// every reachable declared function, the entry point that first reached
// it (entries map to themselves). Functions outside the graph are
// ignored.
func (g *CallGraph) Reachable(entries []*types.Func) map[*types.Func]*types.Func {
	reached := make(map[*types.Func]*types.Func)
	var queue []*types.Func
	for _, e := range entries {
		e = origin(e)
		if _, ok := g.nodes[e]; !ok {
			continue
		}
		if _, ok := reached[e]; ok {
			continue
		}
		reached[e] = e
		queue = append(queue, e)
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		entry := reached[fn]
		for _, callee := range g.nodes[fn].Callees {
			if _, ok := reached[callee]; ok {
				continue
			}
			reached[callee] = entry
			queue = append(queue, callee)
		}
	}
	return reached
}
