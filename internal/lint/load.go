package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and type-checked module package. Test files
// (*_test.go) are excluded: hayatlint analyzes the production tree.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
	TypeErrs   []error
}

// Main reports whether the package is a command.
func (p *Package) Main() bool { return p.Types != nil && p.Types.Name() == "main" }

// PathContains reports whether the package import path contains the
// given slash-separated segment run (e.g. "internal/service").
func (p *Package) PathContains(seg string) bool { return pathContains(p.ImportPath, seg) }

func pathContains(path, seg string) bool {
	return strings.Contains("/"+path+"/", "/"+seg+"/")
}

// FindModuleRoot walks up from dir to the nearest go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

func modulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s/go.mod", root)
}

// loader type-checks module packages from source, resolving
// module-internal imports recursively and everything else through the
// go/importer source importer.
type loader struct {
	fset    *token.FileSet
	root    string
	modPath string
	std     types.Importer
	pkgs    map[string]*Package // by import path
	loading map[string]bool     // cycle guard
}

// Load parses and type-checks every package under the module rooted at
// root, skipping testdata, vendor, hidden directories and test files.
// Packages are returned in import-path order. Type-check errors are
// recorded on the package (TypeErrs) rather than aborting the load, so
// lint still runs over a tree that `go build` will reject for an
// unrelated reason.
func Load(root string) ([]*Package, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	l := &loader{
		fset:    fset,
		root:    root,
		modPath: modPath,
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
	}

	var dirs []string
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if len(sourceFiles(path)) > 0 {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	var out []*Package
	for _, dir := range dirs {
		p, err := l.loadDir(dir)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ImportPath < out[j].ImportPath })
	return out, nil
}

// sourceFiles lists the non-test .go files in dir that go build would
// compile for the host (file-name suffixes such as _amd64 and //go:build
// lines honoured, so an architecture's files never meet their fallback),
// sorted.
func sourceFiles(dir string) []string {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var files []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		files = append(files, filepath.Join(dir, name))
	}
	sort.Strings(files)
	return files
}

func (l *loader) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.root, dir)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.modPath, nil
	}
	return l.modPath + "/" + filepath.ToSlash(rel), nil
}

func (l *loader) loadDir(dir string) (*Package, error) {
	ipath, err := l.importPathFor(dir)
	if err != nil {
		return nil, err
	}
	if p, ok := l.pkgs[ipath]; ok {
		return p, nil
	}
	if l.loading[ipath] {
		return nil, fmt.Errorf("lint: import cycle through %s", ipath)
	}
	l.loading[ipath] = true
	defer delete(l.loading, ipath)

	files := sourceFiles(dir)
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go source files in %s", dir)
	}
	p := &Package{ImportPath: ipath, Dir: dir, Fset: l.fset}
	for _, fname := range files {
		f, err := parser.ParseFile(l.fset, fname, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		p.Files = append(p.Files, f)
	}

	p.Info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{
		Importer: (*loaderImporter)(l),
		Error:    func(err error) { p.TypeErrs = append(p.TypeErrs, err) },
	}
	// Check reports errors through conf.Error and still returns a usable
	// (possibly incomplete) package, which is all the rules need.
	tpkg, _ := conf.Check(ipath, l.fset, p.Files, p.Info)
	p.Types = tpkg
	l.pkgs[ipath] = p
	return p, nil
}

// loaderImporter adapts loader to types.Importer.
type loaderImporter loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	l := (*loader)(li)
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		dir := filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, l.modPath), "/")))
		p, err := l.loadDir(dir)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}
