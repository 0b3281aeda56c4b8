package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	Path  string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages of one module using only the
// standard library. Imports within the module are resolved recursively from
// source; standard-library imports come from the toolchain's importer.
type Loader struct {
	Fset       *token.FileSet
	moduleDir  string
	modulePath string

	std     types.Importer
	src     types.Importer      // fallback when no export data is installed
	pkgs    map[string]*Package // by import path
	loading map[string]bool     // cycle guard
}

// NewLoader returns a loader rooted at moduleDir (the directory holding
// go.mod).
func NewLoader(moduleDir string) (*Loader, error) {
	modPath, err := modulePathOf(filepath.Join(moduleDir, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:       fset,
		moduleDir:  moduleDir,
		modulePath: modPath,
		std:        importer.ForCompiler(fset, "gc", nil),
		src:        importer.ForCompiler(fset, "source", nil),
		pkgs:       map[string]*Package{},
		loading:    map[string]bool{},
	}, nil
}

// modulePathOf extracts the module path from a go.mod file.
func modulePathOf(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("analysis: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("analysis: no module directive in %s", gomod)
}

// ModulePath returns the module's import path.
func (l *Loader) ModulePath() string { return l.modulePath }

// Import implements types.Importer: module-internal paths load from source,
// everything else defers to the toolchain importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == l.modulePath || strings.HasPrefix(path, l.modulePath+"/") {
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	pkg, err := l.std.Import(path)
	if err != nil {
		// Toolchains without installed export data (GOROOT/pkg) still
		// typecheck the standard library from source.
		return l.src.Import(path)
	}
	return pkg, nil
}

// dirOf maps a module-internal import path to its directory.
func (l *Loader) dirOf(path string) string {
	if path == l.modulePath {
		return l.moduleDir
	}
	return filepath.Join(l.moduleDir, filepath.FromSlash(strings.TrimPrefix(path, l.modulePath+"/")))
}

// load type-checks one module-internal package (non-test files only),
// caching the result.
func (l *Loader) load(path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	p, err := l.loadDirAs(l.dirOf(path), path)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	return p, nil
}

// loadDirAs parses and type-checks the non-test .go files of dir as import
// path path. It is used both for module packages and for test fixtures.
func (l *Loader) loadDirAs(dir, path string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: %w", err)
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("analysis: no non-test Go files in %s", dir)
	}

	files := make([]*ast.File, 0, len(names))
	for _, n := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, n), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		files = append(files, f)
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: typecheck %s: %w", path, err)
	}
	return &Package{Path: path, Files: files, Types: tpkg, Info: info}, nil
}

// PackageDirs returns the import paths of every package under root (a
// directory inside the module), skipping testdata, hidden and underscore
// directories.
func (l *Loader) PackageDirs(root string) ([]string, error) {
	var paths []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".go") || strings.HasSuffix(d.Name(), "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(l.moduleDir, filepath.Dir(p))
		if err != nil {
			return err
		}
		ip := l.modulePath
		if rel != "." {
			ip = l.modulePath + "/" + filepath.ToSlash(rel)
		}
		if len(paths) == 0 || paths[len(paths)-1] != ip {
			paths = append(paths, ip)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	// WalkDir visits files of a directory consecutively, but dedupe
	// defensively in case of interleaving.
	out := paths[:0]
	for i, p := range paths {
		if i == 0 || paths[i-1] != p {
			out = append(out, p)
		}
	}
	return out, nil
}

// Load loads (and caches) the package at the given module-internal import
// path.
func (l *Loader) Load(path string) (*Package, error) { return l.load(path) }

// NewPass builds an analysis Pass for a loaded package.
func NewPass(l *Loader, p *Package) *Pass {
	return &Pass{
		Fset:    l.Fset,
		PkgPath: p.Path,
		Pkg:     p.Types,
		Files:   p.Files,
		Info:    p.Info,
	}
}
