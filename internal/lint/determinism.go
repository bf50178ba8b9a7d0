package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// checkDeterminism is the interprocedural taint rule guarding the
// project's central invariant: identical Config in, bit-identical Result
// bytes out, on any host, at any worker count. The content-addressed
// cache, the Merkle audit log, cluster re-routing and the replicated
// store's 409 determinism-fork check all assume it.
//
// The rule computes the set of functions reachable (via the module call
// graph, interface dispatch included) from the result-producing entry
// points:
//
//   - internal/sim:      exported Run*/Resume* ((*Engine).Run, which
//     runs fresh and resumed lifetimes)
//   - internal/core:     every exported function (policy steps)
//   - internal/thermal:  exported *Solve*/*SteadyState* (solves)
//   - the module root:   exported Run*/Resume* (RunLifetime,
//     RunLifetimeContext, RunLifetimeWithCheckpoints, RunLifetimeTraced,
//     RunPopulation, RunPopulationContext)
//   - package-level var initialisers of the simulation library, and the
//     functions they mention: they run at package initialisation, and
//     the values they compute feed every run
//
// and flags, inside any reachable function or such initialiser, the
// nondeterminism sources that could make two runs of the same Config
// diverge:
//
//   - time.Now / time.Since / time.Until (wall clock)
//   - package-level math/rand and math/rand/v2 draws (process-global,
//     unseeded source; rand.New/rand.NewSource constructors are fine —
//     a config-seeded *rand.Rand is the sanctioned way to be random)
//   - range over a map whose iteration order escapes into an
//     order-sensitive sink (append, string concatenation, hash/encoder
//     writes, channel sends of the ranged key or value); commutative
//     folds (numeric +=) and key-indexed writes (out[k] = v) are not
//     sinks, and appending into a slice the function later sorts
//     (collect-then-sort) is sanitized
//   - select with two or more communication cases (runtime picks
//     pseudo-randomly among ready cases); one case plus default is fine
//   - runtime.GOMAXPROCS and os.Getenv/LookupEnv/Environ (host
//     environment reads)
//
// Independent of reachability, struct types whose name contains Result
// or Checkpoint must not serialize map-typed exported fields: their
// bytes feed content hashes, and map fields invite order-dependent
// custom encoders (and non-canonical re-encoding outside encoding/json).
//
// Reporting is scoped to the simulation library, which includes the
// population summary (internal/metrics, whose aggregates are part of
// every population Result) and the figure harness (internal/experiments,
// internal/report). The serving layers (internal/service, cluster,
// store, merkle) are deliberately nondeterministic in their
// scheduling — timestamps, backoff jitter, hedged fetches — and are
// guarded by the runtime determinism suites and the replicated store's
// leaf-conflict check instead; internal/faultinject is test-only
// injection. Edges through those packages still exist in the graph, only
// their diagnostics are dropped.
func checkDeterminism(pkgs []*Package, r *Reporter) {
	g := BuildCallGraph(pkgs)
	entries := determinismEntries(g)
	initEntries := make(map[*types.Func]bool)
	for _, p := range pkgs {
		if !determinismScoped(p) {
			continue
		}
		forEachVarInit(p, func(e ast.Expr) {
			scanNondeterminismSources(p, e, func(pos token.Pos, msg string) {
				r.Reportf(pos, "%s (in a package-level initialiser)", msg)
			})
			g.mentions(p, e, func(f *types.Func) {
				initEntries[f] = true
				entries = append(entries, f)
			})
		})
	}
	reached := g.Reachable(entries)

	// Deterministic iteration: sort reachable functions by position.
	var fns []*types.Func
	for fn := range reached {
		fns = append(fns, fn)
	}
	sort.Slice(fns, func(i, j int) bool {
		return g.nodes[fns[i]].Decl.Pos() < g.nodes[fns[j]].Decl.Pos()
	})
	for _, fn := range fns {
		node := g.nodes[fn]
		if !determinismScoped(node.Pkg) {
			continue
		}
		entry := reached[fn]
		via := ""
		switch {
		case initEntries[entry]:
			via = fmt.Sprintf(" (run at package initialisation through %s)", entry.FullName())
		case entry != fn:
			via = fmt.Sprintf(" (on the result path from %s)", entry.FullName())
		}
		scanNondeterminismSources(node.Pkg, node.Decl, func(pos token.Pos, msg string) {
			r.Reportf(pos, "%s%s", msg, via)
		})
	}

	for _, p := range pkgs {
		if determinismScoped(p) {
			checkResultMapFields(p, r)
		}
	}
}

// determinismExcluded lists the package segments outside the rule's
// reporting scope: the serving/injection layers whose nondeterminism is
// either deliberate (scheduling, jitter, timestamps) or test-only, and
// which the runtime determinism suites cover end to end.
var determinismExcluded = []string{
	"internal/service",
	"internal/cluster",
	"internal/store",
	"internal/merkle",
	"internal/faultinject",
	"internal/lint",
	"internal/testutil",
}

func determinismScoped(p *Package) bool {
	if p.Main() || p.PathContains("examples") {
		return false
	}
	for _, seg := range determinismExcluded {
		if p.PathContains(seg) {
			return false
		}
	}
	return true
}

// determinismEntries collects the result-producing entry points.
func determinismEntries(g *CallGraph) []*types.Func {
	var entries []*types.Func
	for fn, node := range g.nodes {
		name := fn.Name()
		if !token.IsExported(name) {
			continue
		}
		p := node.Pkg
		switch {
		case p.PathContains("internal/sim"):
			if strings.HasPrefix(name, "Run") || strings.HasPrefix(name, "Resume") {
				entries = append(entries, fn)
			}
		case p.PathContains("internal/core"):
			entries = append(entries, fn)
		case p.PathContains("internal/thermal"):
			if strings.Contains(name, "Solve") || strings.Contains(name, "SteadyState") {
				entries = append(entries, fn)
			}
		case moduleRootPackage(p):
			if strings.HasPrefix(name, "Run") || strings.HasPrefix(name, "Resume") {
				entries = append(entries, fn)
			}
		}
	}
	return entries
}

// moduleRootPackage identifies the module's root library package (the
// hayat API surface) without knowing the module path: a non-main,
// non-internal package whose import path has the fewest segments is the
// root. For the fixture module (no root package) this matches nothing.
func moduleRootPackage(p *Package) bool {
	return p.Types != nil && p.Types.Name() == "hayat" &&
		!strings.Contains(p.ImportPath, "/internal/")
}

// scanNondeterminismSources walks one function declaration or
// package-level initialiser (closures included — they run on the
// declarer's result path) and reports every nondeterminism source.
func scanNondeterminismSources(p *Package, decl ast.Node, report func(token.Pos, string)) {
	ast.Inspect(decl, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if msg := nondetCall(p.Info, n); msg != "" {
				report(n.Pos(), msg)
			}
		case *ast.SelectStmt:
			comm := 0
			for _, c := range n.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
					comm++
				}
			}
			if comm >= 2 {
				report(n.Pos(), fmt.Sprintf("select with %d communication cases: the runtime picks pseudo-randomly among ready cases; restructure so at most one case can affect the result", comm))
			}
		case *ast.RangeStmt:
			checkMapRangeOrder(p, decl, n, report)
		}
		return true
	})
}

// nondetCall classifies a single call expression as a nondeterminism
// source, or returns "".
func nondetCall(info *types.Info, call *ast.CallExpr) string {
	f := calleeOf(info, call)
	if f == nil {
		return ""
	}
	name := f.Name()
	switch funcPkgPath(f) {
	case "time":
		switch name {
		case "Now", "Since", "Until":
			return "time." + name + " reads the wall clock, which differs across runs and hosts"
		}
	case "math/rand", "math/rand/v2":
		if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() == nil {
			switch name {
			case "New", "NewSource", "NewPCG", "NewChaCha8", "NewZipf":
				// Constructors are how a config-seeded *rand.Rand is made.
			default:
				return "math/rand." + name + " draws from the process-global source; thread a config-seeded *rand.Rand instead"
			}
		}
	case "runtime":
		if name == "GOMAXPROCS" {
			return "runtime.GOMAXPROCS depends on the host; results must not"
		}
	case "os":
		switch name {
		case "Getenv", "LookupEnv", "Environ":
			return "os." + name + " reads the host environment; results must not depend on it"
		}
	}
	return ""
}

// checkMapRangeOrder flags a range over a map whose unordered key/value
// escapes into an order-sensitive sink inside the loop body. One
// sanitizer is recognised: appending into a slice that the same function
// also passes to a sort.* call — the canonical collect-then-sort idiom —
// launders the order taint (approximation: the sort call's position
// relative to the loop is not checked; a sort before the loop would
// fool it, but that shape has no reason to exist).
func checkMapRangeOrder(p *Package, decl ast.Node, rng *ast.RangeStmt, report func(token.Pos, string)) {
	t := p.Info.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	ranged := make(map[types.Object]bool)
	for _, e := range []ast.Expr{rng.Key, rng.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := p.Info.Defs[id]; obj != nil {
				ranged[obj] = true
			} else if obj := p.Info.Uses[id]; obj != nil {
				ranged[obj] = true
			}
		}
	}
	if len(ranged) == 0 {
		return
	}
	usesRanged := func(e ast.Expr) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && ranged[p.Info.Uses[id]] {
				found = true
			}
			return !found
		})
		return found
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if sink := orderSinkCall(p.Info, n, usesRanged); sink != "" {
				if sink == "append" && sortedInFunc(p.Info, decl, rootObject(p.Info, n.Args[0])) {
					return true // collect-then-sort: the sort sanitizes the order
				}
				report(n.Pos(), "map iteration order escapes into "+sink+"; iterate a sorted copy of the keys instead")
			}
		case *ast.AssignStmt:
			// s += v / s = s + v on strings is order-sensitive
			// concatenation; numeric folds commute and stay exempt.
			if stringConcatOfRanged(p.Info, n, usesRanged) {
				report(n.Pos(), "map iteration order escapes into string concatenation; iterate a sorted copy of the keys instead")
			}
		case *ast.SendStmt:
			if usesRanged(n.Value) {
				report(n.Pos(), "map iteration order escapes into a channel send; iterate a sorted copy of the keys instead")
			}
		}
		return true
	})
}

// orderSinkCall reports the order-sensitive sink a call feeds ranged
// values into, or "". Sinks: the append builtin, and hash/encoder/writer
// style calls (Write*, Sum, Marshal, Encode, Fprint*) taking a ranged
// value.
func orderSinkCall(info *types.Info, call *ast.CallExpr, usesRanged func(ast.Expr) bool) string {
	// append(dst, kv...) — dst argument alone does not taint.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			if b.Name() == "append" {
				for _, arg := range call.Args[1:] {
					if usesRanged(arg) {
						return "append"
					}
				}
			}
			return ""
		}
	}
	f := calleeOf(info, call)
	if f == nil {
		return ""
	}
	switch f.Name() {
	case "Write", "WriteString", "WriteByte", "WriteRune", "Sum",
		"Marshal", "MarshalIndent", "Encode",
		"Fprintf", "Fprint", "Fprintln":
		for _, arg := range call.Args {
			if usesRanged(arg) {
				return f.Name() + " (hash/encoder/writer)"
			}
		}
	}
	return ""
}

// rootObject resolves the base identifier of an lvalue-ish expression
// (names, rows[i], s.field → the object of names/rows/s), or nil.
func rootObject(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			if obj := info.Uses[x]; obj != nil {
				return obj
			}
			return info.Defs[x]
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// sortedInFunc reports whether decl contains a sort call whose argument
// has obj as its base — the sanitizer for collect-then-sort.
func sortedInFunc(info *types.Info, decl ast.Node, obj types.Object) bool {
	if obj == nil {
		return false
	}
	sorted := false
	ast.Inspect(decl, func(n ast.Node) bool {
		if sorted {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		f := calleeOf(info, call)
		switch funcPkgPath(f) {
		case "sort", "slices":
		default:
			return true
		}
		for _, arg := range call.Args {
			if rootObject(info, arg) == obj {
				sorted = true
				return false
			}
		}
		return true
	})
	return sorted
}

// stringConcatOfRanged reports whether assign concatenates a ranged
// value onto a string accumulator.
func stringConcatOfRanged(info *types.Info, assign *ast.AssignStmt, usesRanged func(ast.Expr) bool) bool {
	isString := func(e ast.Expr) bool {
		t := info.TypeOf(e)
		if t == nil {
			return false
		}
		b, ok := t.Underlying().(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	switch assign.Tok {
	case token.ADD_ASSIGN:
		return len(assign.Lhs) == 1 && isString(assign.Lhs[0]) && usesRanged(assign.Rhs[0])
	case token.ASSIGN:
		for i, rhs := range assign.Rhs {
			if i >= len(assign.Lhs) {
				break
			}
			if bin, ok := rhs.(*ast.BinaryExpr); ok && bin.Op == token.ADD &&
				isString(bin) && usesRanged(rhs) {
				return true
			}
		}
	}
	return false
}

// checkResultMapFields flags map-typed exported fields that would be
// serialized on structs whose name marks them as result or checkpoint
// payloads — the byte streams content hashes and Merkle leaves are
// computed over.
func checkResultMapFields(p *Package, r *Reporter) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			name := ts.Name.Name
			if !strings.Contains(name, "Result") && !strings.Contains(name, "Checkpoint") {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				if jsonTagName(field) == "-" {
					continue // not serialized, cannot reach result bytes
				}
				t := p.Info.TypeOf(field.Type)
				if t == nil {
					continue
				}
				if _, isMap := t.Underlying().(*types.Map); !isMap {
					continue
				}
				for _, fname := range field.Names {
					if !fname.IsExported() {
						continue
					}
					r.Reportf(fname.Pos(),
						"%s.%s is a serialized map field in a result/checkpoint struct; map re-encoding is not canonical — use a slice with a defined order",
						name, fname.Name)
				}
			}
			return true
		})
	}
}
