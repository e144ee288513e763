package lint

import (
	"fmt"
	"go/ast"
	"go/build"
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

// Package is one type-checked, lintable package.
type Package struct {
	// ImportPath is the package's module-relative import path.
	ImportPath string
	// Dir is the absolute directory the package was loaded from.
	Dir string
	// Fset maps positions for Files.
	Fset *token.FileSet
	// Files holds the parsed non-test sources, in file-name order.
	Files []*ast.File
	// Types and Info carry the go/types results.
	Types *types.Package
	Info  *types.Info
	// TypeErr records the first type-checking error, if any. Run fails
	// on it: checks over partial type information pass vacuously.
	TypeErr error

	// ann caches the parsed //mobilint: directives (see annotations()).
	ann *pkgAnnotations
}

// findModuleRoot walks up from dir to the enclosing go.mod and returns
// the module root directory and module path.
func findModuleRoot(dir string) (root, modPath string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	start := dir
	for {
		data, rerr := os.ReadFile(filepath.Join(dir, "go.mod"))
		if rerr == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module directive", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("lint: no go.mod found above %s", start)
		}
		dir = parent
	}
}

// loader parses and type-checks packages. In-module import paths are
// resolved from source under the module root; everything else is
// type-checked from GOROOT sources via the stdlib source importer.
type loader struct {
	fset    *token.FileSet
	root    string
	modPath string
	std     types.Importer
	pkgs    map[string]*Package
}

func newLoader(root, modPath string) *loader {
	fset := token.NewFileSet()
	return &loader{
		fset:    fset,
		root:    root,
		modPath: modPath,
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    map[string]*Package{},
	}
}

// Import implements types.Importer over both namespaces.
func (l *loader) Import(path string) (*types.Package, error) {
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.modPath), "/")
		pkg, err := l.loadDir(filepath.Join(l.root, filepath.FromSlash(rel)))
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// importPathFor maps an absolute directory to its in-module import path.
func (l *loader) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.root, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("lint: %s is outside module root %s", dir, l.root)
	}
	if rel == "." {
		return l.modPath, nil
	}
	return l.modPath + "/" + filepath.ToSlash(rel), nil
}

// loadDir parses and type-checks the package in dir (non-test files
// only), memoized by import path.
func (l *loader) loadDir(dir string) (*Package, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	ip, err := l.importPathFor(dir)
	if err != nil {
		return nil, err
	}
	if pkg, ok := l.pkgs[ip]; ok {
		return pkg, nil
	}
	names, err := goFilesIn(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no non-test Go files in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	var firstErr error
	conf := types.Config{
		Importer:    l,
		FakeImportC: true,
		// Keep checking past the first error so the loader still
		// returns a package; Run reports TypeErr.
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	tpkg, _ := conf.Check(ip, l.fset, files, info)
	pkg := &Package{
		ImportPath: ip,
		Dir:        dir,
		Fset:       l.fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
		TypeErr:    firstErr,
	}
	l.pkgs[ip] = pkg
	return pkg, nil
}

// allPackages returns every module package the loader has seen —
// the selected packages plus their transitive in-module imports —
// sorted by import path. This is the call-graph universe.
func (l *loader) allPackages() []*Package {
	var pkgs []*Package
	for _, pkg := range l.pkgs {
		pkgs = append(pkgs, pkg)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].ImportPath < pkgs[j].ImportPath })
	return pkgs
}

// goFilesIn lists the non-test .go files in dir that go build would
// compile for the target GOOS/GOARCH (file-name suffixes and //go:build
// lines, via build.Default), sorted.
func goFilesIn(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		match, err := build.Default.MatchFile(dir, name)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		if match {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names, nil
}

// packageDirs walks start and returns every directory containing at
// least one non-test Go file, skipping testdata, vendor, hidden and
// underscore directories below the start itself.
func packageDirs(start string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(start, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if path != start {
			name := d.Name()
			if name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return fs.SkipDir
			}
		}
		names, err := goFilesIn(path)
		if err != nil {
			return err
		}
		if len(names) > 0 {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	return dirs, nil
}

// resolveDirs expands package patterns ("./...", "dir/...", "dir")
// relative to base into a sorted, deduplicated directory list.
func resolveDirs(base string, patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	for _, p := range patterns {
		if rest, ok := strings.CutSuffix(p, "..."); ok {
			start := filepath.Join(base, filepath.FromSlash(strings.TrimSuffix(rest, "/")))
			ds, err := packageDirs(start)
			if err != nil {
				return nil, fmt.Errorf("lint: pattern %q: %w", p, err)
			}
			for _, d := range ds {
				if !seen[d] {
					seen[d] = true
					dirs = append(dirs, d)
				}
			}
			continue
		}
		d := filepath.Join(base, filepath.FromSlash(p))
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}
