package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
)

// checkErrWrap keeps error chains intact:
//
//  1. fmt.Errorf that embeds an error value must use %w, not %v/%s/%q —
//     otherwise errors.Is/As cannot see through the wrapper, which
//     breaks error classification (the router's retries, a checkpoint
//     resume's injected-fault check).
//  2. Sentinel errors must be compared with errors.Is, never == or != —
//     a wrapped faultinject.ErrInjected compares unequal to the
//     sentinel and silently defeats the check.
func checkErrWrap(p *Package, r *Reporter) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkErrorfWrap(p, r, n)
			case *ast.BinaryExpr:
				checkSentinelCompare(p, r, n)
			}
			return true
		})
	}
}

func checkErrorfWrap(p *Package, r *Reporter, call *ast.CallExpr) {
	if !isFunc(calleeOf(p.Info, call), "fmt", "Errorf") || len(call.Args) < 2 {
		return
	}
	lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return
	}
	format, err := strconv.Unquote(lit.Value)
	if err != nil {
		return
	}
	verbs := formatVerbs(format)
	for i, arg := range call.Args[1:] {
		if i >= len(verbs) {
			break
		}
		v := verbs[i]
		if v != 'v' && v != 's' && v != 'q' {
			continue
		}
		if implementsError(p.Info.TypeOf(arg)) {
			r.Reportf(arg.Pos(),
				"fmt.Errorf formats an error with %%%c; use %%w so callers can unwrap it with errors.Is/As", v)
		}
	}
}

// formatVerbs returns one verb byte per argument the format string
// consumes; '*' width/precision arguments consume a slot and are
// recorded as '*'.
func formatVerbs(format string) []byte {
	var verbs []byte
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		i++
		// flags
		for i < len(format) && (format[i] == '#' || format[i] == '0' ||
			format[i] == '+' || format[i] == '-' || format[i] == ' ') {
			i++
		}
		// width
		for i < len(format) && format[i] >= '0' && format[i] <= '9' {
			i++
		}
		if i < len(format) && format[i] == '*' {
			verbs = append(verbs, '*')
			i++
		}
		// precision
		if i < len(format) && format[i] == '.' {
			i++
			for i < len(format) && format[i] >= '0' && format[i] <= '9' {
				i++
			}
			if i < len(format) && format[i] == '*' {
				verbs = append(verbs, '*')
				i++
			}
		}
		if i >= len(format) || format[i] == '%' {
			continue
		}
		verbs = append(verbs, format[i])
	}
	return verbs
}

func checkSentinelCompare(p *Package, r *Reporter, bin *ast.BinaryExpr) {
	if bin.Op != token.EQL && bin.Op != token.NEQ {
		return
	}
	x, y := p.Info.TypeOf(bin.X), p.Info.TypeOf(bin.Y)
	if !implementsError(x) || !implementsError(y) {
		return
	}
	sentinel := sentinelName(p.Info, bin.X)
	if sentinel == "" {
		sentinel = sentinelName(p.Info, bin.Y)
	}
	if sentinel == "" {
		return
	}
	verb := "=="
	if bin.Op == token.NEQ {
		verb = "!="
	}
	r.Reportf(bin.Pos(),
		"sentinel error %s compared with %s; use errors.Is so wrapped errors still match", sentinel, verb)
}

// sentinelName returns the name of the package-level error variable the
// expression denotes ("io.EOF", "ErrInjected"), or "" when the operand
// is not a sentinel.
func sentinelName(info *types.Info, e ast.Expr) string {
	var id *ast.Ident
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return ""
	}
	v, ok := info.Uses[id].(*types.Var)
	if !ok || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
		return ""
	}
	return v.Name()
}
