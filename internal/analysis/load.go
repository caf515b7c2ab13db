package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package of the module.
type Package struct {
	Path  string         // import path
	Dir   string         // absolute directory
	Fset  *token.FileSet // shared across the whole load
	Files []*ast.File    // non-test files, sorted by filename
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks the packages of one module using nothing
// but the standard library. Imports inside the module are resolved from
// source by mapping the import path onto the module directory; standard
// library imports are delegated to go/importer's source importer. The
// loader memoizes packages, so each is checked once per process.
type Loader struct {
	Fset   *token.FileSet
	root   string // absolute module root (directory holding go.mod)
	module string // module path from go.mod
	std    types.Importer
	pkgs   map[string]*Package // by import path
}

// NewLoader builds a loader for the module rooted at dir (the directory
// containing go.mod, or any directory below it).
func NewLoader(dir string) (*Loader, error) {
	root, err := findModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	module, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:   fset,
		root:   root,
		module: module,
		std:    importer.ForCompiler(fset, "source", nil),
		pkgs:   make(map[string]*Package),
	}, nil
}

// Root returns the module root directory.
func (l *Loader) Root() string { return l.root }

func findModuleRoot(dir string) (string, error) {
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
			return "", fmt.Errorf("analysis: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

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
	return "", fmt.Errorf("analysis: no module line in %s", gomod)
}

// Import implements types.Importer: module-internal paths load from
// source, everything else (the standard library) goes through the source
// importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.module || strings.HasPrefix(path, l.module+"/") {
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// dirFor maps a module import path to its directory.
func (l *Loader) dirFor(path string) string {
	if path == l.module {
		return l.root
	}
	return filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(path, l.module+"/")))
}

// load parses and type-checks the package at the given module import
// path, memoized.
func (l *Loader) load(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	dir := l.dirFor(path)
	files, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	pkg, err := l.check(path, dir, files)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

// parseDir parses the non-test Go files of one directory in sorted
// order (determinism of diagnostics depends on it).
func (l *Loader) parseDir(dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// check type-checks one package's files.
func (l *Loader) check(path, dir string, files []*ast.File) (*Package, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	return &Package{Path: path, Dir: dir, Fset: l.Fset, Files: files, Types: tpkg, Info: info}, nil
}

// LoadAll loads every package under the module root, skipping testdata,
// hidden directories, and directories without non-test Go files.
// Packages come back sorted by import path.
func (l *Loader) LoadAll() ([]*Package, error) {
	paths, err := l.walkPackages()
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, p := range paths {
		pkg, err := l.load(p)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// walkPackages lists the import paths of every package directory in the
// module, sorted.
func (l *Loader) walkPackages() ([]string, error) {
	var paths []string
	err := filepath.WalkDir(l.root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != l.root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		has, err := hasGoFiles(p)
		if err != nil {
			return err
		}
		if has {
			rel, err := filepath.Rel(l.root, p)
			if err != nil {
				return err
			}
			if rel == "." {
				paths = append(paths, l.module)
			} else {
				paths = append(paths, l.module+"/"+filepath.ToSlash(rel))
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	return paths, nil
}

func hasGoFiles(dir string) (bool, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false, err
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") &&
			!strings.HasSuffix(name, "_test.go") && !strings.HasPrefix(name, ".") {
			return true, nil
		}
	}
	return false, nil
}
