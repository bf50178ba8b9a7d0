package lint

import (
	"go/ast"
)

// checkFailpointCoverage enforces failure-injection coverage for durable
// and peer I/O: inside internal/service, internal/persist,
// internal/merkle, internal/cluster and internal/store, any function that
// calls os.WriteFile, os.Rename, (*os.File).Sync, performs a disk-cache
// read (os.ReadFile, os.Open), or issues a peer HTTP request
// ((*net/http.Client).Do) must also evaluate a faultinject failpoint, so
// the crash-safety tests and cluster drills can fault that seam. An
// uninstrumented write, replica or forward path is exactly the regression
// the journal, checkpoint, audit-log, replication and kill-a-peer tests
// cannot see.
func checkFailpointCoverage(p *Package, r *Reporter) {
	if !p.PathContains("internal/service") && !p.PathContains("internal/persist") &&
		!p.PathContains("internal/merkle") &&
		!p.PathContains("internal/cluster") && !p.PathContains("internal/store") {
		return
	}
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			risky := riskyIOCalls(p, fd.Body)
			if len(risky) == 0 || evaluatesFailpoint(p, fd.Body) {
				continue
			}
			for _, call := range risky {
				r.Reportf(call.call.Pos(),
					"%s without a faultinject failpoint in %s; evaluate a failpoint on this durable-I/O path so tests can inject its failure",
					call.what, fd.Name.Name)
			}
		}
	}
}

type riskyCall struct {
	call *ast.CallExpr
	what string
}

// riskyIOCalls collects the durable-I/O calls in body. Closures are
// included: a failpoint in the enclosing function guards them too, since
// the rule is scoped per declared function.
func riskyIOCalls(p *Package, body *ast.BlockStmt) []riskyCall {
	var out []riskyCall
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		f := calleeOf(p.Info, call)
		switch {
		case isFunc(f, "os", "WriteFile"):
			out = append(out, riskyCall{call, "os.WriteFile"})
		case isFunc(f, "os", "Rename"):
			out = append(out, riskyCall{call, "os.Rename"})
		case isFunc(f, "os", "ReadFile"):
			out = append(out, riskyCall{call, "os.ReadFile"})
		case isFunc(f, "os", "Open"):
			out = append(out, riskyCall{call, "os.Open"})
		case fullName(f) == "(*os.File).Sync":
			out = append(out, riskyCall{call, "(*os.File).Sync"})
		case fullName(f) == "(*net/http.Client).Do":
			out = append(out, riskyCall{call, "(*net/http.Client).Do"})
		}
		return true
	})
	return out
}

// evaluatesFailpoint reports whether body calls anything exported by a
// package whose import path contains internal/faultinject.
func evaluatesFailpoint(p *Package, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if pathContains(funcPkgPath(calleeOf(p.Info, call)), "internal/faultinject") {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
