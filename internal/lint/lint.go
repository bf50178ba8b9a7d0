// Package lint implements hayatlint, the project's static analyzer. It
// enforces the concurrency, context and failure-injection invariants the
// service grew across the hayatd PRs — rules that ordinary `go vet`
// cannot express because they are project policy, not language misuse:
//
//	ctxfirst           exported blocking functions take context.Context
//	                   first; context.Background/TODO stay in main,
//	                   tests and examples
//	goroutine-hygiene  no fire-and-forget goroutines in internal/service
//	failpoint-coverage durable I/O in internal/service and
//	                   internal/persist — and peer HTTP I/O in
//	                   internal/cluster — runs under a faultinject
//	                   failpoint
//	errwrap            wrap errors with %w, compare with errors.Is
//	checked-solve      only internal/numeric may call raw Solve/SteadyState
//	mutex-discipline   no return between Lock and a non-deferred Unlock
//	determinism        no wall clock, global rand, map-order leak, racy
//	                   select or host-environment read on any path
//	                   reachable from a result-producing entry point or a
//	                   package-level initialiser (module-wide taint over
//	                   the call graph)
//	key-completeness   exported Config fields excluded from the canonical
//	                   cache key (json:"-") must be allow-listed
//	reachability       every library function is reached from a command,
//	                   an init, a package-level initialiser, the exported
//	                   hayat API or a stdlib interface, or carries a
//	                   directive naming the tests that keep it
//
// The analyzer is stdlib-only (go/ast, go/parser, go/types, go/importer):
// module packages are parsed and type-checked from source, imports
// outside the module resolve through the source importer. Test files are
// not analyzed; they are exercised by `go vet` and the race detector
// instead.
//
// A diagnostic is suppressed by a comment on the flagged line or the
// line above it:
//
//	//lint:ignore <rule> <reason>
//
// The reason is mandatory and the rule name must exist; a malformed or
// unknown suppression is itself a diagnostic (rule "lint").
package lint

import (
	"fmt"
	"go/token"
	"sort"
)

// Diagnostic is one finding, addressed by resolved source position.
type Diagnostic struct {
	Pos  token.Position
	Rule string
	Msg  string
}

// String renders the canonical `file:line: [rule] message` form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Rule, d.Msg)
}

// Rule is one named invariant check. Intra-procedural rules set Check
// and run once per package; module-wide rules (interprocedural analyses
// that need the whole call graph) set CheckModule and run once over the
// full package set. A rule sets exactly one of the two.
type Rule struct {
	Name        string
	Doc         string
	Check       func(p *Package, r *Reporter)
	CheckModule func(pkgs []*Package, r *Reporter)
}

// Rules returns the full rule set in stable order.
func Rules() []Rule {
	return []Rule{
		{Name: "ctxfirst", Doc: "exported blocking functions take context.Context first; Background/TODO confined to main, tests, examples", Check: checkCtxFirst},
		{Name: "goroutine-hygiene", Doc: "goroutines in internal/service must be WaitGroup-tracked", Check: checkGoroutineHygiene},
		{Name: "failpoint-coverage", Doc: "durable I/O in internal/service and internal/persist, and peer HTTP I/O in internal/cluster, must run under a faultinject failpoint", Check: checkFailpointCoverage},
		{Name: "errwrap", Doc: "wrap embedded errors with %w and compare sentinels with errors.Is", Check: checkErrWrap},
		{Name: "checked-solve", Doc: "raw Solve/SteadyState are reserved for internal/numeric; callers use the *Checked variants", Check: checkCheckedSolve},
		{Name: "mutex-discipline", Doc: "no return between Lock and its Unlock unless the unlock is deferred", Check: checkMutexDiscipline},
		{Name: "determinism", Doc: "no nondeterminism source (wall clock, global rand, map-order leak, racy select, host env) reachable from a result-producing entry point", CheckModule: checkDeterminism},
		{Name: "key-completeness", Doc: "exported Config fields excluded from the canonical cache key (json:\"-\") must carry a justified allow-list suppression", CheckModule: checkKeyCompleteness},
		{Name: "reachability", Doc: "every library function is reached from a command, an init, a package-level initialiser, the exported hayat API or a stdlib interface, or says which tests keep it", CheckModule: checkReachability},
	}
}

// RuleNames returns the set of valid rule names.
func RuleNames() map[string]bool {
	names := make(map[string]bool)
	for _, r := range Rules() {
		names[r.Name] = true
	}
	return names
}

// Reporter accumulates diagnostics; positions resolve through the
// FileSet shared by every package of one Load.
type Reporter struct {
	fset  *token.FileSet
	rule  string
	diags []Diagnostic
}

// Reportf records a diagnostic for the active rule at pos.
func (r *Reporter) Reportf(pos token.Pos, format string, args ...any) {
	r.diags = append(r.diags, Diagnostic{
		Pos:  r.fset.Position(pos),
		Rule: r.rule,
		Msg:  fmt.Sprintf(format, args...),
	})
}

// Run executes the given rules over the packages — per-package rules on
// each package, module rules once over the whole set — applies
// //lint:ignore suppressions, validates the suppression comments
// themselves, and returns the surviving diagnostics in file/line order.
func Run(pkgs []*Package, rules []Rule) []Diagnostic {
	if len(pkgs) == 0 {
		return nil
	}
	// Suppressions name any registered rule, including ones filtered out
	// of this run, without tripping the unknown-rule check.
	allKnown := RuleNames()

	// Suppressions are collected module-wide up front: a module rule may
	// report a diagnostic in any package, and the matching suppression
	// lives in that package's file. Keys carry absolute filenames, so
	// one set is safe.
	sup := make(suppressionSet)
	var out []Diagnostic
	for _, p := range pkgs {
		s, supDiags := collectSuppressions(p, allKnown)
		for k := range s {
			sup[k] = true
		}
		out = append(out, supDiags...)
	}

	rep := &Reporter{fset: pkgs[0].Fset}
	for _, p := range pkgs {
		for _, rule := range rules {
			if rule.Check == nil {
				continue
			}
			rep.rule = rule.Name
			rule.Check(p, rep)
		}
	}
	for _, rule := range rules {
		if rule.CheckModule == nil {
			continue
		}
		rep.rule = rule.Name
		rule.CheckModule(pkgs, rep)
	}
	for _, d := range rep.diags {
		if sup.matches(d) {
			continue
		}
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Rule < b.Rule
	})
	return out
}
