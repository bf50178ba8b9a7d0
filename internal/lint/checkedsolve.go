package lint

import (
	"go/ast"
	"go/types"
)

// checkCheckedSolve reserves the raw solver entry points for
// internal/numeric itself. The thermal model's production solves exist
// only as checked entry points (SteadyStateChecked, StepChecked) that
// reject non-finite inputs and results; a raw Solve or SteadyState added
// back outside internal/numeric would reopen the hole where a poisoned
// power vector ages a chip with NaN temperatures. The reachability rule
// cannot catch such a twin once a production path calls it; this rule
// can. A deliberate raw fast path guarded by its caller carries a
// //lint:ignore checked-solve justification.
func checkCheckedSolve(p *Package, r *Reporter) {
	if p.PathContains("internal/numeric") {
		return
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			name := sel.Sel.Name
			if name != "Solve" && name != "SteadyState" {
				return true
			}
			fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
			if !ok {
				return true
			}
			pkg := funcPkgPath(fn)
			if !pathContains(pkg, "internal/numeric") && !pathContains(pkg, "internal/thermal") {
				return true
			}
			recv := ""
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				qual := func(p *types.Package) string { return p.Name() }
				recv = types.TypeString(sig.Recv().Type(), qual) + "."
			}
			r.Reportf(call.Pos(),
				"raw %s%s call outside internal/numeric; use %sChecked so non-finite values are rejected instead of propagated",
				recv, name, name)
			return true
		})
	}
}
