package analysis

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

// Package is one type-checked analysis unit: a package's syntax, type
// information and annotation index. Test files are folded into their
// package's unit (and external _test packages form their own unit), so the
// analyzers see test code too.
type Package struct {
	Path   string
	Name   string
	Fset   *token.FileSet
	Syntax []*ast.File
	Types  *types.Package
	Info   *types.Info
	Annot  *Annotations
}

// loader resolves imports for a module rooted at root: module-internal paths
// are parsed and type-checked from source on demand, everything else (the
// standard library) goes through go/importer's source importer. No x/tools.
type loader struct {
	fset    *token.FileSet
	root    string
	modPath string
	std     types.Importer
	cache   map[string]*types.Package
	loading map[string]bool
}

func newLoader(root, modPath string) *loader {
	fset := token.NewFileSet()
	return &loader{
		fset:    fset,
		root:    root,
		modPath: modPath,
		std:     importer.ForCompiler(fset, "source", nil),
		cache:   make(map[string]*types.Package),
		loading: make(map[string]bool),
	}
}

// Import implements types.Importer for dependency resolution. Only the
// non-test files of a package are visible to importers, mirroring the go
// tool.
func (l *loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if pkg, ok := l.cache[path]; ok {
		return pkg, nil
	}
	if l.modPath != "" && (path == l.modPath || strings.HasPrefix(path, l.modPath+"/")) {
		if l.loading[path] {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		l.loading[path] = true
		defer delete(l.loading, path)
		dir := filepath.Join(l.root, strings.TrimPrefix(strings.TrimPrefix(path, l.modPath), "/"))
		bp, err := build.Default.ImportDir(dir, 0)
		if err != nil {
			return nil, fmt.Errorf("resolve %s: %w", path, err)
		}
		files, err := l.parse(dir, bp.GoFiles)
		if err != nil {
			return nil, err
		}
		pkg, _, err := l.check(path, files)
		if err != nil {
			return nil, err
		}
		l.cache[path] = pkg
		return pkg, nil
	}
	return l.std.Import(path)
}

func (l *loader) parse(dir string, names []string) ([]*ast.File, error) {
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

func (l *loader) check(path string, files []*ast.File) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, nil, fmt.Errorf("type-check %s: %w", path, err)
	}
	return pkg, info, nil
}

// unit type-checks one analysis unit and wraps it as a Package.
func (l *loader) unit(path, dir string, names []string) (*Package, error) {
	files, err := l.parse(dir, names)
	if err != nil {
		return nil, err
	}
	pkg, info, err := l.check(path, files)
	if err != nil {
		return nil, err
	}
	return &Package{
		Path:   path,
		Name:   pkg.Name(),
		Fset:   l.fset,
		Syntax: files,
		Types:  pkg,
		Info:   info,
		Annot:  CollectAnnotations(l.fset, files),
	}, nil
}

// externalTests type-checks the external test package of path as the go tool
// builds it: against path with its in-package test files (names), which an
// export_test.go may add to, and with every module package it imports built
// against that variant too. It therefore has a loader of its own, sharing
// only the file set and the standard library.
func (l *loader) externalTests(path, dir string, names, xtest []string) (*Package, error) {
	xl := &loader{fset: l.fset, root: l.root, modPath: l.modPath, std: l.std,
		cache: make(map[string]*types.Package), loading: make(map[string]bool)}
	if len(names) > 0 {
		under, err := xl.unit(path, dir, names)
		if err != nil {
			return nil, err
		}
		xl.cache[path] = under.Types
	}
	return xl.unit(path+"_test", dir, xtest)
}

// LoadModule loads every package under the module rooted at root (its go.mod
// names the module path), including in-package and external test files, and
// returns the analysis units in deterministic path order. Directories named
// testdata, hidden directories, and vendored trees are skipped, mirroring
// the go tool's ./... semantics.
func LoadModule(root string) ([]*Package, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
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
		if path != root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)

	l := newLoader(root, modPath)
	var pkgs []*Package
	for _, dir := range dirs {
		bp, err := build.Default.ImportDir(dir, 0)
		if err != nil {
			if _, ok := err.(*build.NoGoError); ok {
				continue
			}
			return nil, err
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return nil, err
		}
		path := modPath
		if rel != "." {
			path = modPath + "/" + filepath.ToSlash(rel)
		}
		// The analysis unit folds in-package test files into the package;
		// importers of the package still get the test-free variant via
		// loader.Import.
		names := append(append([]string{}, bp.GoFiles...), bp.TestGoFiles...)
		if len(names) > 0 {
			pkg, err := l.unit(path, dir, names)
			if err != nil {
				return nil, err
			}
			pkgs = append(pkgs, pkg)
		}
		if len(bp.XTestGoFiles) > 0 {
			pkg, err := l.externalTests(path, dir, names, bp.XTestGoFiles)
			if err != nil {
				return nil, err
			}
			pkgs = append(pkgs, pkg)
		}
	}
	return pkgs, nil
}

// LoadDir loads a single directory as one package with no module context —
// imports resolve through the standard library only. The fixture harness
// uses it for testdata packages.
func LoadDir(dir string) (*Package, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	l := newLoader(dir, "")
	return l.unit("fixture/"+filepath.Base(dir), dir, names)
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("%s: no module directive", gomod)
}
