package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// NoAllocDirective marks a function whose body must stay free of
// allocating constructs. It is applied to the proven-zero-alloc paths
// (reducer append/piggyback, the mailbox ring, obs nil-recorder emission,
// LatencyHist recording) so the runtime TestHotPathAllocations has a
// static twin that names the exact line when an allocation creeps in.
const NoAllocDirective = "//mpichv:noalloc"

// NoAlloc checks every function annotated //mpichv:noalloc for allocating
// constructs: new, make, heap-escaping or slice/map composite literals,
// append whose result is not stored back into its own buffer (append into
// an unowned slice), string concatenation and string<->[]byte/[]rune
// conversions, fmt.* calls, closures, and goroutine launches.
//
// The analysis is intra-procedural: calls to unannotated helpers are
// trusted (the amortized grow/refill paths are deliberately factored into
// such helpers), and the runtime TestHotPathAllocations remains the
// authority on the composed steady state. The static check's job is to
// catch the regression at the exact line, at compile time, instead of as
// an anonymous allocs/op delta in a test row.
type NoAlloc struct{}

// Name implements Check.
func (NoAlloc) Name() string { return "noalloc" }

// Desc implements Check.
func (NoAlloc) Desc() string {
	return "functions annotated //mpichv:noalloc must contain no allocating constructs"
}

// Run implements Check.
func (NoAlloc) Run(pkg *Package) []Finding {
	var findings []Finding
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !hasNoAllocDirective(fn) {
				continue
			}
			findings = append(findings, checkNoAllocBody(pkg, fn)...)
		}
	}
	return findings
}

// hasNoAllocDirective reports whether the function's doc comment carries
// the //mpichv:noalloc annotation.
func hasNoAllocDirective(fn *ast.FuncDecl) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if strings.HasPrefix(strings.TrimSpace(c.Text), NoAllocDirective) {
			return true
		}
	}
	return false
}

// checkNoAllocBody walks one annotated function body and reports every
// allocating construct.
func checkNoAllocBody(pkg *Package, fn *ast.FuncDecl) []Finding {
	var findings []Finding
	for _, site := range allocSites(pkg, fn) {
		findings = append(findings, Finding{
			Check: "noalloc",
			Pos:   pkg.Fset.Position(site.pos),
			Msg:   fmt.Sprintf("%s is annotated %s: %s", fn.Name.Name, NoAllocDirective, site.msg),
		})
	}
	return findings
}

// allocSite is one allocating construct found in a function body: the
// position and a message naming the construct. The intra-procedural
// noalloc check and the transitive module check share this scan and
// differ only in how they attribute the site.
type allocSite struct {
	pos token.Pos
	msg string
}

// allocSites scans one function body for allocating constructs: new,
// make, heap-escaping or slice/map composite literals, unowned appends,
// string concatenation and allocating conversions, fmt calls, closures,
// and goroutine launches.
func allocSites(pkg *Package, fn *ast.FuncDecl) []allocSite {
	var sites []allocSite
	flag := func(pos token.Pos, format string, args ...any) {
		sites = append(sites, allocSite{pos: pos, msg: fmt.Sprintf(format, args...)})
	}
	parents := parentMap(fn.Body)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.GoStmt:
			flag(x.Pos(), "spawning a goroutine allocates")
		case *ast.FuncLit:
			flag(x.Pos(), "closure literal allocates")
			return false // don't double-report the closure's own body
		case *ast.BinaryExpr:
			if x.Op == token.ADD && isStringType(pkg, x.X) {
				flag(x.Pos(), "string concatenation allocates")
			}
		case *ast.CompositeLit:
			sites = append(sites, compositeLitSites(pkg, parents, x)...)
		case *ast.CallExpr:
			sites = append(sites, callSites(pkg, parents, x)...)
		}
		return true
	})
	return sites
}

// callSites classifies one call inside a scanned body: builtin
// allocators, unowned appends, allocating conversions and fmt calls.
func callSites(pkg *Package, parents map[ast.Node]ast.Node, call *ast.CallExpr) []allocSite {
	var sites []allocSite
	flag := func(format string, args ...any) {
		sites = append(sites, allocSite{pos: call.Pos(), msg: fmt.Sprintf(format, args...)})
	}
	if id, ok := call.Fun.(*ast.Ident); ok {
		if _, isBuiltin := pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "new":
				flag("new allocates")
			case "make":
				flag("make allocates")
			case "append":
				if !appendIsOwned(parents, call) {
					flag("append result is discarded or stored elsewhere: appending into an unowned slice allocates on growth without the owner seeing the new backing array")
				}
			}
			return sites
		}
	}
	// Conversions: string <-> []byte/[]rune and anything-to-string.
	if tv, ok := pkg.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		dst := tv.Type.Underlying()
		srcTV, ok := pkg.Info.Types[call.Args[0]]
		if ok {
			src := srcTV.Type.Underlying()
			if b, ok := dst.(*types.Basic); ok && b.Info()&types.IsString != 0 {
				if sb, ok := src.(*types.Basic); !ok || sb.Info()&types.IsString == 0 {
					flag("conversion to string allocates")
				}
			}
			if s, ok := dst.(*types.Slice); ok {
				if sb, ok := src.(*types.Basic); ok && sb.Info()&types.IsString != 0 {
					if e, ok := s.Elem().Underlying().(*types.Basic); ok && (e.Kind() == types.Byte || e.Kind() == types.Rune) {
						flag("string-to-slice conversion allocates")
					}
				}
			}
		}
		return sites
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if f, ok := pkg.Info.Uses[sel.Sel].(*types.Func); ok && f.Pkg() != nil && f.Pkg().Path() == "fmt" {
			flag("fmt.%s allocates (formatting is never free)", f.Name())
		}
	}
	return sites
}

// appendIsOwned reports whether an append call's result is stored back
// into the appended slice (`x = append(x, ...)`) or returned directly to
// the owner — the two forms under which growth stays visible to whoever
// owns the buffer.
func appendIsOwned(parents map[ast.Node]ast.Node, call *ast.CallExpr) bool {
	if len(call.Args) == 0 {
		return false
	}
	switch p := parents[call].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.AssignStmt:
		for i, rhs := range p.Rhs {
			if rhs == call && i < len(p.Lhs) {
				return types.ExprString(p.Lhs[i]) == types.ExprString(call.Args[0])
			}
		}
	}
	return false
}

// compositeLitSites flags heap-escaping (&T{...}) and slice/map composite
// literals. Plain struct and array literals used as values are stack
// copies and stay allowed.
func compositeLitSites(pkg *Package, parents map[ast.Node]ast.Node, lit *ast.CompositeLit) []allocSite {
	flag := func(msg string) []allocSite {
		return []allocSite{{pos: lit.Pos(), msg: msg}}
	}
	if u, ok := parents[lit].(*ast.UnaryExpr); ok && u.Op == token.AND {
		return flag("&composite-literal escapes to the heap")
	}
	if tv, ok := pkg.Info.Types[lit]; ok {
		switch tv.Type.Underlying().(type) {
		case *types.Slice:
			return flag("slice literal allocates")
		case *types.Map:
			return flag("map literal allocates")
		}
	}
	return nil
}

// isStringType reports whether the expression has string type.
func isStringType(pkg *Package, e ast.Expr) bool {
	tv, ok := pkg.Info.Types[e]
	if !ok {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// parentMap records each node's immediate parent within root, so the
// checks can classify a node by the construct it appears in.
func parentMap(root ast.Node) map[ast.Node]ast.Node {
	parents := make(map[ast.Node]ast.Node)
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}
