// Command hayatlint is the project's static analyzer: it loads every
// package in the module (stdlib-only: go/parser + go/types + the source
// importer), runs the invariant rules from internal/lint, and prints one
// `file:line: [rule] message` diagnostic per violation.
//
// Usage:
//
//	go run ./cmd/hayatlint ./...                      # whole module
//	go run ./cmd/hayatlint ./internal/service
//	go run ./cmd/hayatlint -rules errwrap,determinism ./...
//	go run ./cmd/hayatlint -json ./...                # machine-readable
//
// The module-wide rules (determinism, key-completeness, reachability)
// always analyze the full module — a directory argument narrows which
// diagnostics are printed, not what the call graph sees.
//
// Exit status: 0 clean, 1 diagnostics reported, 2 usage or load failure.
// Suppress a single finding with `//lint:ignore <rule> <reason>` on the
// flagged line or the line above it.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"github.com/kit-ces/hayat/internal/lint"
)

func main() {
	ruleFilter := flag.String("rule", "", "run only the named rule")
	rulesFilter := flag.String("rules", "", "run only the named rules (comma-separated)")
	listRules := flag.Bool("list", false, "list rules and exit")
	jsonOut := flag.Bool("json", false, "emit diagnostics as a JSON array instead of text")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: hayatlint [-rules a,b | -rule name] [-json] [./... | dir ...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	rules := lint.Rules()
	if *listRules {
		for _, r := range rules {
			fmt.Printf("%-20s %s\n", r.Name, r.Doc)
		}
		return
	}
	var names []string
	if *ruleFilter != "" {
		names = append(names, *ruleFilter)
	}
	for _, n := range strings.Split(*rulesFilter, ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	if len(names) > 0 {
		byName := make(map[string]lint.Rule)
		for _, r := range rules {
			byName[r.Name] = r
		}
		var kept []lint.Rule
		for _, n := range names {
			r, ok := byName[n]
			if !ok {
				fmt.Fprintf(os.Stderr, "hayatlint: unknown rule %q\n", n)
				os.Exit(2)
			}
			kept = append(kept, r)
		}
		rules = kept
	}

	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	root, err := lint.FindModuleRoot(cwd)
	if err != nil {
		fatal(err)
	}
	pkgs, err := lint.Load(root)
	if err != nil {
		fatal(err)
	}

	diags := lint.Run(pkgs, rules)

	// Narrow to the requested targets AFTER analysis: module-wide rules
	// need the whole call graph regardless of what the user asked to
	// see. "./..." (or no argument) keeps everything; a directory
	// argument keeps the diagnostics positioned under it.
	if targets := flag.Args(); len(targets) > 0 && !all(targets) {
		var dirs []string
		for _, t := range targets {
			t = strings.TrimSuffix(t, "/...")
			abs, err := filepath.Abs(t)
			if err != nil {
				fatal(err)
			}
			dirs = append(dirs, abs)
		}
		var kept []lint.Diagnostic
		for _, d := range diags {
			dir := filepath.Dir(d.Pos.Filename)
			for _, want := range dirs {
				if dir == want || strings.HasPrefix(dir, want+string(filepath.Separator)) {
					kept = append(kept, d)
					break
				}
			}
		}
		diags = kept
	}

	rel := func(name string) string {
		if r, err := filepath.Rel(cwd, name); err == nil && !strings.HasPrefix(r, "..") {
			return r
		}
		return name
	}
	if *jsonOut {
		if err := lint.WriteJSON(os.Stdout, diags, rel); err != nil {
			fatal(err)
		}
	} else {
		for _, d := range diags {
			fmt.Printf("%s:%d: [%s] %s\n", rel(d.Pos.Filename), d.Pos.Line, d.Rule, d.Msg)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "hayatlint: %d violation(s)\n", len(diags))
		os.Exit(1)
	}
}

func all(targets []string) bool {
	for _, t := range targets {
		if t != "./..." && t != "..." {
			return false
		}
	}
	return true
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hayatlint:", err)
	os.Exit(2)
}
