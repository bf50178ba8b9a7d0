package lint

import (
	"bytes"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// loadTempModule writes files (path → contents) into a fresh module and
// loads it, for tests whose fixtures are about line geometry or rule
// filtering rather than rule semantics (those live in testdata/src).
func loadTempModule(t *testing.T, files map[string]string) []*Package {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module example.com/tmpfixture\n\ngo 1.22\n"
	for name, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pkgs, err := Load(dir)
	if err != nil {
		t.Fatalf("loading temp module: %v", err)
	}
	for _, p := range pkgs {
		if len(p.TypeErrs) > 0 {
			t.Fatalf("%s: fixture type errors: %v", p.ImportPath, p.TypeErrs)
		}
	}
	return pkgs
}

// TestSuppressionMultiLineStatement pins the line geometry of
// suppressions around a multi-line statement: the directive reaches the
// flagged line and the line directly below itself — NOT the whole
// statement. A directive above a statement whose flagged call sits two
// lines further down does not suppress it; the directive belongs
// directly above (or on) the flagged line, even mid-statement.
func TestSuppressionMultiLineStatement(t *testing.T) {
	pkgs := loadTempModule(t, map[string]string{
		"p/p.go": `package p

import "context"

func id(c context.Context) context.Context { return c }

// suppressed: directive directly above the flagged line, which here is
// in the middle of a multi-line call expression.
func a() context.Context {
	return id(
		//lint:ignore ctxfirst fixture: directive directly above the flagged line
		context.Background(),
	)
}

// NOT suppressed: the directive sits above the statement, two lines
// from the flagged call.
func b() context.Context {
	//lint:ignore ctxfirst fixture: directive above the statement, not the flagged line
	x := id(
		context.Background(),
	)
	return x
}
`,
	})
	diags := Run(pkgs, Rules())
	var ctxfirst []Diagnostic
	for _, d := range diags {
		switch d.Rule {
		case "ctxfirst":
			ctxfirst = append(ctxfirst, d)
		default:
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	if len(ctxfirst) != 1 {
		t.Fatalf("got %d ctxfirst diagnostics, want exactly 1 (a suppressed, b not): %v", len(ctxfirst), ctxfirst)
	}
	if !strings.HasSuffix(ctxfirst[0].Pos.Filename, "p.go") || ctxfirst[0].Pos.Line != 21 {
		t.Errorf("surviving diagnostic at %s:%d, want the context.Background inside b (line 21)",
			ctxfirst[0].Pos.Filename, ctxfirst[0].Pos.Line)
	}
}

// TestFilteredRulesKeepSuppressionsValid runs a filtered rule set: a
// suppression naming a registered-but-filtered-out rule must not trip
// the unknown-rule check, while a truly unknown rule still does.
func TestFilteredRulesKeepSuppressionsValid(t *testing.T) {
	pkgs := loadTempModule(t, map[string]string{
		"p/p.go": `package p

//lint:ignore determinism suppressions may name rules filtered out of this run
var a = 1

//lint:ignore nosuchrule this one must still be flagged
var b = 2
`,
	})
	var filtered []Rule
	for _, r := range Rules() {
		if r.Name == "ctxfirst" {
			filtered = append(filtered, r)
		}
	}
	if len(filtered) != 1 {
		t.Fatal("ctxfirst rule not found")
	}
	diags := Run(pkgs, filtered)
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1 (only the unknown-rule directive): %v", len(diags), diags)
	}
	d := diags[0]
	if d.Rule != "lint" || !strings.Contains(d.Msg, `unknown rule "nosuchrule"`) {
		t.Errorf("got %s, want a lint diagnostic about nosuchrule", d)
	}
}

// TestSuppressionAppliesToModuleRules verifies module-wide rules go
// through the same suppression machinery as per-package rules: the
// key-completeness allow-list convention depends on it.
func TestSuppressionAppliesToModuleRules(t *testing.T) {
	pkgs := loadTempModule(t, map[string]string{
		"internal/sim/sim.go": `package sim

// Config is hashed into the cache key.
type Config struct {
	//lint:ignore key-completeness fixture: justified exclusion
	Quiet bool ` + "`json:\"-\"`" + `
	Loud  bool ` + "`json:\"-\"`" + `
}
`,
	})
	diags := Run(pkgs, Rules())
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1 (Quiet allow-listed, Loud flagged): %v", len(diags), diags)
	}
	if diags[0].Rule != "key-completeness" || !strings.Contains(diags[0].Msg, "Loud") {
		t.Errorf("got %s, want a key-completeness diagnostic for Loud", diags[0])
	}
}

// TestWriteJSONGolden pins the -json wire format byte for byte: CI
// tooling parses it, so drift is a breaking change.
func TestWriteJSONGolden(t *testing.T) {
	diags := []Diagnostic{
		{
			Pos:  token.Position{Filename: "/abs/internal/sim/sim.go", Line: 42, Column: 7},
			Rule: "determinism",
			Msg:  "time.Now reads the wall clock",
		},
		{
			Pos:  token.Position{Filename: "/abs/hayat.go", Line: 130, Column: 2},
			Rule: "key-completeness",
			Msg:  `exported Config field Debug is excluded from the canonical cache key (json:"-")`,
		},
	}
	rel := func(name string) string { return strings.TrimPrefix(name, "/abs/") }
	var buf bytes.Buffer
	if err := WriteJSON(&buf, diags, rel); err != nil {
		t.Fatal(err)
	}
	want := `[
  {
    "file": "internal/sim/sim.go",
    "line": 42,
    "column": 7,
    "rule": "determinism",
    "message": "time.Now reads the wall clock"
  },
  {
    "file": "hayat.go",
    "line": 130,
    "column": 2,
    "rule": "key-completeness",
    "message": "exported Config field Debug is excluded from the canonical cache key (json:\"-\")"
  }
]
`
	if got := buf.String(); got != want {
		t.Errorf("JSON output drifted:\ngot:\n%s\nwant:\n%s", got, want)
	}

	// Zero diagnostics must encode as [], never null.
	buf.Reset()
	if err := WriteJSON(&buf, nil, nil); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(buf.String()); got != "[]" {
		t.Errorf("empty diagnostics encode as %q, want []", got)
	}
}
