package lint

import (
	"go/ast"
	"go/token"
	"strconv"
	"strings"
)

// ignorePrefix introduces a suppression comment:
//
//	//lint:ignore <rule> <reason>
//
// It silences diagnostics of that rule on the comment's own line and on
// the line directly below it (i.e. the comment sits at the end of the
// flagged line or on its own line immediately above, which for function
// level findings means the last line of the doc comment).
const ignorePrefix = "lint:ignore"

type suppression struct {
	file string
	line int
	rule string
}

type suppressionSet map[suppression]bool

func (s suppressionSet) matches(d Diagnostic) bool {
	if s == nil {
		return false
	}
	return s[suppression{d.Pos.Filename, d.Pos.Line, d.Rule}] ||
		s[suppression{d.Pos.Filename, d.Pos.Line - 1, d.Rule}]
}

// collectSuppressions scans a package's comments for //lint:ignore
// directives. Malformed directives (missing reason) and directives
// naming a rule that does not exist are not suppressions — they are
// reported as diagnostics of the pseudo-rule "lint" so a typo cannot
// silently disable a check.
func collectSuppressions(p *Package, known map[string]bool) (suppressionSet, []Diagnostic) {
	set := make(suppressionSet)
	var diags []Diagnostic
	report := func(pos token.Pos, msg string) {
		diags = append(diags, Diagnostic{Pos: p.Fset.Position(pos), Rule: "lint", Msg: msg})
	}
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				fields, ok := ignoreDirective(c)
				if !ok {
					continue
				}
				if len(fields) == 0 {
					report(c.Pos(), "//lint:ignore needs a rule name and a reason")
					continue
				}
				rule := fields[0]
				if !known[rule] {
					report(c.Pos(), "//lint:ignore names unknown rule "+strconv.Quote(rule))
					continue
				}
				if len(fields) < 2 {
					report(c.Pos(), "//lint:ignore "+rule+" is missing a reason")
					continue
				}
				set[suppression{
					file: p.Fset.Position(c.Pos()).Filename,
					line: p.Fset.Position(c.Pos()).Line,
					rule: rule,
				}] = true
			}
		}
	}
	return set, diags
}

// ignoreDirective splits a //lint:ignore comment into its rule name and
// reason words; ok is false for any other comment. /* */ comments do
// not carry directives.
func ignoreDirective(c *ast.Comment) (fields []string, ok bool) {
	text, ok := strings.CutPrefix(c.Text, "//")
	if !ok {
		return nil, false
	}
	text, ok = strings.CutPrefix(strings.TrimSpace(text), ignorePrefix)
	if !ok || (text != "" && text[0] != ' ' && text[0] != '\t') {
		return nil, false
	}
	return strings.Fields(text), true
}
