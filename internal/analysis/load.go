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

// Package is one loaded, type-checked package: the parsed files (tests
// excluded) plus the type information the checks consult.
type Package struct {
	// Path is the package's import path within the module.
	Path string
	// Dir is the directory the package was loaded from.
	Dir string
	// Fset is the file set all position information resolves through.
	Fset *token.FileSet
	// Files are the parsed non-test source files.
	Files []*ast.File
	// Types is the type-checked package object.
	Types *types.Package
	// Info carries the expression types and identifier uses the checks
	// consult.
	Info *types.Info
}

// Module is what the checks run on: every package of one module, loaded
// and type-checked, in import-path order.
type Module struct {
	Pkgs []*Package
}

// LoadModule loads and type-checks every package of the module rooted at
// root (PackageDirs is sorted, which is import-path order).
func LoadModule(root string) (*Module, error) {
	loader, err := NewLoader(root)
	if err != nil {
		return nil, err
	}
	dirs, err := loader.PackageDirs()
	if err != nil {
		return nil, err
	}
	m := &Module{}
	for _, dir := range dirs {
		pkg, err := loader.LoadDir(dir)
		if err != nil {
			return nil, fmt.Errorf("load %s: %w", dir, err)
		}
		m.Pkgs = append(m.Pkgs, pkg)
	}
	return m, nil
}

// Loader parses and type-checks packages of a single module using only
// the standard library: module-internal imports are type-checked from
// source, and standard-library imports go through go/importer's source
// importer. Loaded packages are cached, so a whole-repository run
// type-checks each package (and each stdlib dependency) once.
type Loader struct {
	root    string
	module  string
	fset    *token.FileSet
	std     types.ImporterFrom
	pkgs    map[string]*Package
	loading map[string]bool
}

// NewLoader returns a loader rooted at the module directory containing
// go.mod. The module path is read from go.mod so import paths can be
// mapped back to directories.
func NewLoader(root string) (*Loader, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("analysis: loader root must contain go.mod: %w", err)
	}
	module := ""
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			module = strings.TrimSpace(rest)
			break
		}
	}
	if module == "" {
		return nil, fmt.Errorf("analysis: no module directive in %s/go.mod", root)
	}
	fset := token.NewFileSet()
	std, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("analysis: source importer does not implement ImporterFrom")
	}
	return &Loader{
		root:    root,
		module:  module,
		fset:    fset,
		std:     std,
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
	}, nil
}

// PackageDirs walks the module and returns every directory (relative to
// the root, "." for the root itself) holding at least one non-test Go
// file. testdata, vendor and hidden directories are skipped — the same
// universe `go build ./...` sees.
func (l *Loader) PackageDirs() ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(l.root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != l.root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		ents, err := os.ReadDir(p)
		if err != nil {
			return err
		}
		for _, e := range ents {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
				rel, err := filepath.Rel(l.root, p)
				if err != nil {
					return err
				}
				dirs = append(dirs, filepath.ToSlash(rel))
				break
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	return dirs, nil
}

// LoadDir loads and type-checks the package in dir (relative to the
// loader root, "." for the root package).
func (l *Loader) LoadDir(dir string) (*Package, error) {
	ipath := l.module
	if dir != "." && dir != "" {
		ipath = l.module + "/" + filepath.ToSlash(dir)
	}
	return l.load(ipath)
}

// ImportFrom implements types.ImporterFrom: module-internal paths are
// loaded from source under the loader root, everything else is delegated
// to the standard library's source importer.
func (l *Loader) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	if path == l.module || strings.HasPrefix(path, l.module+"/") {
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.ImportFrom(path, srcDir, mode)
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.root, 0)
}

// load parses and type-checks one module-internal import path, caching
// the result and guarding against import cycles.
func (l *Loader) load(ipath string) (*Package, error) {
	if pkg, ok := l.pkgs[ipath]; ok {
		return pkg, nil
	}
	if l.loading[ipath] {
		return nil, fmt.Errorf("analysis: import cycle through %s", ipath)
	}
	l.loading[ipath] = true
	defer delete(l.loading, ipath)

	dir := l.root
	if rel := strings.TrimPrefix(ipath, l.module); rel != "" {
		dir = filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(rel, "/")))
	}
	parsed, err := parser.ParseDir(l.fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	pkgName := ""
	for name, p := range parsed {
		if strings.HasSuffix(name, "_test") {
			continue // external test packages
		}
		if pkgName != "" && name != pkgName {
			return nil, fmt.Errorf("analysis: multiple packages (%s, %s) in %s", pkgName, name, dir)
		}
		pkgName = name
		for _, f := range p.Files {
			files = append(files, f)
		}
	}
	if pkgName == "" {
		return nil, fmt.Errorf("analysis: no Go package in %s", dir)
	}
	// Deterministic file order: ParseDir's map order must not leak into
	// finding order.
	sort.Slice(files, func(i, j int) bool {
		return l.fset.Position(files[i].Pos()).Filename < l.fset.Position(files[j].Pos()).Filename
	})

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(ipath, l.fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("analysis: type-checking %s: %v", ipath, typeErrs[0])
	}

	pkg := &Package{
		Path:  ipath,
		Dir:   dir,
		Fset:  l.fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}
	l.pkgs[ipath] = pkg
	return pkg, nil
}
