package mpichv_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"strings"
	"testing"
)

// TestExportedIdentifiersDocumented is the missing-doc lint: every exported
// identifier in the root package, in the operator-facing internal packages
// (harness, obs, faultplan), and in the lint suite itself (analysis,
// cmd/lint — the linter must meet its own documentation bar) must carry a
// doc comment. It runs as part of the ordinary test suite, so CI enforces
// it without extra tooling.
func TestExportedIdentifiersDocumented(t *testing.T) {
	for _, dir := range []string{".", "internal/harness", "internal/obs", "internal/faultplan", "internal/analysis", "cmd/lint"} {
		dir := dir
		t.Run(dir, func(t *testing.T) {
			for _, miss := range undocumentedExports(t, dir) {
				t.Errorf("%s: exported identifier without doc comment", miss)
			}
		})
	}
}

// undocumentedExports parses one package directory (tests excluded) and
// returns "file:line: Name" for every exported declaration lacking a doc
// comment. Grouped const/var/type blocks accept a single block comment;
// fields and methods of documented types are not required to repeat docs,
// mirroring what godoc renders prominently.
func undocumentedExports(t *testing.T, dir string) []string {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse %s: %v", dir, err)
	}
	var missing []string
	report := func(pos token.Pos, name string) {
		p := fset.Position(pos)
		missing = append(missing, fmt.Sprintf("%s:%d: %s", p.Filename, p.Line, name))
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Name.IsExported() && d.Doc == nil {
						report(d.Pos(), d.Name.Name)
					}
				case *ast.GenDecl:
					checkGenDecl(d, report)
				}
			}
		}
	}
	return missing
}

// checkGenDecl walks one const/var/type declaration. A doc comment on the
// enclosing block covers single-spec declarations; inside multi-spec
// blocks each exported spec needs its own comment unless the block itself
// is documented (the grouped-constants idiom).
func checkGenDecl(d *ast.GenDecl, report func(token.Pos, string)) {
	blockDoc := d.Doc != nil
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if s.Name.IsExported() && !blockDoc && s.Doc == nil && s.Comment == nil {
				report(s.Pos(), s.Name.Name)
			}
		case *ast.ValueSpec:
			for _, name := range s.Names {
				if name.IsExported() && !blockDoc && s.Doc == nil && s.Comment == nil {
					report(name.Pos(), name.Name)
				}
			}
		}
	}
}
