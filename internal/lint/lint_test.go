package lint

import (
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// The golden fixtures live in a self-contained stdlib-only module under
// testdata/src; each package exercises one rule with positive (flagged,
// marked by a trailing `// want "regexp"` comment) and negative (clean)
// cases. The suppress package is asserted explicitly in
// TestSuppressionAndUnknownRule instead of via want comments, because
// its subject is the suppression machinery itself. The reach packages
// are checked together by TestReachability: reachability is measured
// from a command, and a library alone has none.

var (
	fixtureOnce sync.Once
	fixturePkgs []*Package
	fixtureErr  error
)

func fixturePackages(t *testing.T) []*Package {
	t.Helper()
	fixtureOnce.Do(func() {
		root, err := filepath.Abs(filepath.Join("testdata", "src"))
		if err != nil {
			fixtureErr = err
			return
		}
		fixturePkgs, fixtureErr = Load(root)
	})
	if fixtureErr != nil {
		t.Fatalf("loading fixture module: %v", fixtureErr)
	}
	if len(fixturePkgs) == 0 {
		t.Fatal("fixture module loaded zero packages")
	}
	return fixturePkgs
}

// want is one expected diagnostic parsed from a fixture comment.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

var wantRe = regexp.MustCompile(`// want (".*"|` + "`.*`" + `)\s*$`)

func parseWants(t *testing.T, p *Package) []*want {
	t.Helper()
	var wants []*want
	seen := map[string]bool{}
	for _, f := range p.Files {
		name := p.Fset.Position(f.Pos()).Filename
		if seen[name] {
			continue
		}
		seen[name] = true
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatalf("reading fixture %s: %v", name, err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			pat, err := strconv.Unquote(m[1])
			if err != nil {
				t.Fatalf("%s:%d: bad want string %s: %v", name, i+1, m[1], err)
			}
			re, err := regexp.Compile(pat)
			if err != nil {
				t.Fatalf("%s:%d: bad want regexp %q: %v", name, i+1, pat, err)
			}
			wants = append(wants, &want{file: name, line: i + 1, re: re})
		}
	}
	return wants
}

// checkWants runs every rule over pkgs together and requires each want
// comment in them to be matched by a diagnostic on its line, and every
// diagnostic to match a want.
func checkWants(t *testing.T, pkgs []*Package) {
	t.Helper()
	var wants []*want
	for _, p := range pkgs {
		if len(p.TypeErrs) > 0 {
			t.Fatalf("fixture %s has type errors: %v", p.ImportPath, p.TypeErrs)
		}
		wants = append(wants, parseWants(t, p)...)
	}
	for _, d := range Run(pkgs, Rules()) {
		text := "[" + d.Rule + "] " + d.Msg
		found := false
		for _, w := range wants {
			if !w.matched && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(text) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

// TestGolden checks every rule against its fixture package: each want
// comment must be matched by a diagnostic on its line, and no diagnostic
// may appear without a want.
func TestGolden(t *testing.T) {
	for _, p := range fixturePackages(t) {
		if strings.HasSuffix(p.ImportPath, "/suppress") || strings.Contains(p.ImportPath, "/reach/") {
			continue
		}
		p := p
		t.Run(strings.TrimPrefix(p.ImportPath, "example.com/fixture/"), func(t *testing.T) {
			checkWants(t, []*Package{p})
		})
	}
}

// TestReachability runs the rules over the reach command and library
// together: the library's one unreached function is reported, and its
// String, sort.Interface, Error and Unwrap methods, its initialiser's
// constructor, its kept function with that function's callee, and its
// method reached only through a module interface are not. The library
// alone has no main package to measure from, so there the rule is
// silent.
func TestReachability(t *testing.T) {
	var reach []*Package
	var lib *Package
	for _, p := range fixturePackages(t) {
		if strings.Contains(p.ImportPath, "/reach/") {
			reach = append(reach, p)
		}
		if strings.HasSuffix(p.ImportPath, "/reach/lib") {
			lib = p
		}
	}
	if len(reach) != 2 || lib == nil {
		t.Fatalf("want the reach/cmd and reach/lib fixture packages, got %d", len(reach))
	}
	checkWants(t, reach)
	for _, d := range Run([]*Package{lib}, Rules()) {
		if d.Rule == "reachability" {
			t.Errorf("reachability reported without a main package loaded: %s", d)
		}
	}
}

// TestSuppressionAndUnknownRule asserts the //lint:ignore machinery: a
// well-formed suppression (own line or inline) silences exactly its
// rule, a suppression for the wrong rule does not, and malformed
// directives are reported as rule "lint".
func TestSuppressionAndUnknownRule(t *testing.T) {
	var sup *Package
	for _, p := range fixturePackages(t) {
		if strings.HasSuffix(p.ImportPath, "/suppress") {
			sup = p
		}
	}
	if sup == nil {
		t.Fatal("suppress fixture package not found")
	}
	diags := Run([]*Package{sup}, Rules())

	var ctxfirst, lintRule []Diagnostic
	for _, d := range diags {
		switch d.Rule {
		case "ctxfirst":
			ctxfirst = append(ctxfirst, d)
		case "lint":
			lintRule = append(lintRule, d)
		default:
			t.Errorf("unexpected rule %q: %s", d.Rule, d)
		}
	}

	if len(ctxfirst) != 2 {
		t.Fatalf("got %d ctxfirst diagnostics, want 2 (suppressed ones must not appear): %v", len(ctxfirst), ctxfirst)
	}
	for _, fn := range []string{"SleepyUnsuppressed", "WrongRule"} {
		found := false
		for _, d := range ctxfirst {
			if strings.Contains(d.Msg, fn) {
				found = true
			}
		}
		if !found {
			t.Errorf("expected a surviving ctxfirst diagnostic for %s, got %v", fn, ctxfirst)
		}
	}

	if len(lintRule) != 2 {
		t.Fatalf("got %d lint diagnostics, want 2 (unknown rule + missing reason): %v", len(lintRule), lintRule)
	}
	wantMsgs := []string{`unknown rule "nosuchrule"`, "missing a reason"}
	for _, msg := range wantMsgs {
		found := false
		for _, d := range lintRule {
			if strings.Contains(d.Msg, msg) {
				found = true
			}
		}
		if !found {
			t.Errorf("expected a lint diagnostic containing %q, got %v", msg, lintRule)
		}
	}
}

// TestRuleNamesAndDocs keeps the registry consistent: nine uniquely
// named rules, all documented, each with exactly one check kind.
func TestRuleNamesAndDocs(t *testing.T) {
	rules := Rules()
	if len(rules) != 9 {
		t.Fatalf("got %d rules, want 9", len(rules))
	}
	seen := map[string]bool{}
	for _, r := range rules {
		if r.Name == "" || r.Doc == "" {
			t.Errorf("rule %+v is incomplete", r.Name)
		}
		if (r.Check == nil) == (r.CheckModule == nil) {
			t.Errorf("rule %q must set exactly one of Check/CheckModule", r.Name)
		}
		if seen[r.Name] {
			t.Errorf("duplicate rule name %q", r.Name)
		}
		seen[r.Name] = true
	}
	if !RuleNames()["ctxfirst"] {
		t.Error("RuleNames missing ctxfirst")
	}
}

// TestRealTreeClean runs the full rule set over this repository: the
// tree must stay diagnostic-free, making `go test` a lint gate too.
func TestRealTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkgs {
		if len(p.TypeErrs) > 0 {
			t.Errorf("%s: type errors during lint load: %v", p.ImportPath, p.TypeErrs[0])
		}
	}
	for _, d := range Run(pkgs, Rules()) {
		t.Errorf("real tree violation: %s", d)
	}
}

// TestSourceFilesHonourBuildConstraints checks that the loader keeps the
// files go build compiles and drops test files and files whose build
// constraint excludes them, so an architecture's declarations and their
// fallback are never type-checked together.
func TestSourceFilesHonourBuildConstraints(t *testing.T) {
	dir := t.TempDir()
	for name, src := range map[string]string{
		"kept.go":      "package p\n",
		"ignored.go":   "//go:build ignore\n\npackage p\n",
		"never.go":     "//go:build !" + runtime.GOARCH + "\n\npackage p\n",
		"kept_test.go": "package p\n",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got := sourceFiles(dir)
	if want := []string{filepath.Join(dir, "kept.go")}; !slices.Equal(got, want) {
		t.Fatalf("sourceFiles = %v, want %v", got, want)
	}
}
