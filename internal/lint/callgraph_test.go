package lint

import (
	"go/types"
	"strings"
	"testing"
)

// callGraphFixture is one module exercising every edge kind the graph
// claims to resolve: static calls, cross-package calls, closures
// (attributed to their declarer), reference edges (callbacks), and
// interface dispatch. The dead function exists to prove reachability is
// not "everything".
const callGraphFixture = `package a

import "example.com/tmpfixture/b"

type clock interface{ Tick() int }

type wall struct{}

func (wall) Tick() int { return leaf() }

func Entry() int {
	n := direct()
	n += viaClosure()
	n += viaCallback(leafRef)
	var c clock = wall{}
	return n + c.Tick() + b.CrossPackage()
}

func direct() int { return 1 }

func viaClosure() int {
	f := func() int { return closureTarget() }
	return f()
}

func closureTarget() int { return 2 }

func viaCallback(f func() int) int { return f() }

func leafRef() int { return 3 }

func leaf() int { return 4 }

func dead() int { return 5 }
`

func TestCallGraphReachability(t *testing.T) {
	pkgs := loadTempModule(t, map[string]string{
		"a/a.go": callGraphFixture,
		"b/b.go": "package b\n\nfunc CrossPackage() int { return hidden() }\n\nfunc hidden() int { return 6 }\n",
	})
	g := BuildCallGraph(pkgs)

	var entry *types.Func
	for fn := range g.Nodes() {
		if fn.Name() == "Entry" {
			entry = fn
		}
	}
	if entry == nil {
		t.Fatal("Entry not in call graph")
	}
	reached := g.Reachable([]*types.Func{entry})

	got := make(map[string]bool)
	for fn := range reached {
		got[fn.Name()] = true
	}
	for _, want := range []string{
		"Entry",         // the entry maps to itself
		"direct",        // static call
		"viaClosure",    // static call
		"closureTarget", // called only inside a closure: attributed to declarer
		"viaCallback",   // static call
		"leafRef",       // reference edge: passed as a callback, never called by name
		"Tick",          // interface dispatch resolves to wall.Tick
		"leaf",          // reached through the resolved interface method
		"CrossPackage",  // cross-package static call
		"hidden",        // transitive cross-package
	} {
		if !got[want] {
			t.Errorf("%s not reachable from Entry; reached: %v", want, keys(got))
		}
	}
	if got["dead"] {
		t.Error("dead is reachable — the graph is spuriously complete")
	}

	// Origin attribution: everything reached from one entry reports it.
	for fn, origin := range reached {
		if origin != entry {
			t.Errorf("%s attributed to origin %s, want Entry", fn.Name(), origin.Name())
		}
	}
}

func keys(m map[string]bool) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestCallGraphInterfaceFanOut: with no static hint at the concrete
// type, a call through an interface must still fan out to every module
// implementer.
func TestCallGraphInterfaceFanOut(t *testing.T) {
	pkgs := loadTempModule(t, map[string]string{
		"a/a.go": `package a

type step interface{ Apply() }

type fast struct{}

func (fast) Apply() { fastBody() }

type slow struct{}

func (*slow) Apply() { slowBody() }

func fastBody() {}
func slowBody() {}

func Drive(s step) { s.Apply() }
`,
	})
	g := BuildCallGraph(pkgs)
	var drive *types.Func
	for fn := range g.Nodes() {
		if fn.Name() == "Drive" {
			drive = fn
		}
	}
	if drive == nil {
		t.Fatal("Drive not in call graph")
	}
	reached := g.Reachable([]*types.Func{drive})
	var names []string
	for fn := range reached {
		names = append(names, fn.Name())
	}
	joined := strings.Join(names, " ")
	for _, want := range []string{"fastBody", "slowBody"} {
		if !strings.Contains(joined, want) {
			t.Errorf("%s not reached through interface dispatch; reached: %v", want, names)
		}
	}
}

// Node returns the graph node for fn, or nil.
func (g *CallGraph) Node(fn *types.Func) *CallNode {
	return g.nodes[origin(fn)]
}

// Nodes returns every node in the graph (iteration order unspecified;
// callers that emit diagnostics must sort by position, which Run does).
func (g *CallGraph) Nodes() map[*types.Func]*CallNode { return g.nodes }
