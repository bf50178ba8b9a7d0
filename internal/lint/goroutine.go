package lint

import (
	"go/ast"
)

// checkGoroutineHygiene forbids fire-and-forget goroutines in
// internal/service: a crash-safe server must be able to drain (a
// goroutine nobody waits on outlives Shutdown and races the journal). A
// `go` statement is considered tracked when either
//
//   - a sync.WaitGroup.Add call precedes it in the same enclosing
//     function (the spawned body carries the matching Done), or
//   - the spawned function literal itself defers a sync.WaitGroup.Done.
//
// Anything else is flagged; genuinely detached goroutines that are
// joined another way (e.g. via a result channel) carry a
// //lint:ignore goroutine-hygiene with the justification.
func checkGoroutineHygiene(p *Package, r *Reporter) {
	if !p.PathContains("internal/service") {
		return
	}
	forEachFunc(p, func(_ *ast.FuncDecl, body *ast.BlockStmt) {
		inspectNoFuncLit(body, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if addPrecedes(p, body, g) || litDefersDone(p, g) {
				return true
			}
			r.Reportf(g.Pos(),
				"fire-and-forget goroutine: no sync.WaitGroup.Add before the spawn and no deferred Done in the body; track it or join it")
			return true
		})
	})
}

// addPrecedes reports whether a (*sync.WaitGroup).Add call occurs in
// body before the go statement.
func addPrecedes(p *Package, body *ast.BlockStmt, g *ast.GoStmt) bool {
	found := false
	inspectNoFuncLit(body, func(n ast.Node) bool {
		if found || n != nil && n.Pos() >= g.Pos() {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if fullName(calleeOf(p.Info, call)) == "(*sync.WaitGroup).Add" {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// litDefersDone reports whether the spawned expression is a function
// literal that defers a (*sync.WaitGroup).Done.
func litDefersDone(p *Package, g *ast.GoStmt) bool {
	lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit)
	if !ok {
		return false
	}
	found := false
	inspectNoFuncLit(lit.Body, func(n ast.Node) bool {
		d, ok := n.(*ast.DeferStmt)
		if !ok {
			return !found
		}
		if fullName(calleeOf(p.Info, d.Call)) == "(*sync.WaitGroup).Done" {
			found = true
		}
		return !found
	})
	return found
}
