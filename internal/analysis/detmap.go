package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// DetMap is the determinism check for map iteration: inside the
// simulation-core packages, a `for range` over a map is flagged unless the
// site matches one of two provably order-insensitive idioms — collect the
// keys into a slice that is sorted later in the same function, or the
// single-statement clear idiom `delete(m, k)` — or carries a
// //lint:allow detmap directive with a reason. Map iteration order is the
// bug class behind PR 4's SenderLog.Snapshot nondeterminism: any map order
// that reaches protocol state or an output breaks the byte-identical
// -parallel contract, and with causal message logging deterministic replay
// is a correctness property, not a style preference.
type DetMap struct{}

// Name implements Check.
func (DetMap) Name() string { return "detmap" }

// Run implements Check.
func (DetMap) Run(m *Module) []Finding {
	var findings []Finding
	for _, pkg := range m.simCore() {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					rng, ok := n.(*ast.RangeStmt)
					if !ok {
						return true
					}
					tv, ok := pkg.Info.Types[rng.X]
					if !ok {
						return true
					}
					if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
						return true
					}
					if isClearIdiom(pkg, rng) || isCollectAndSort(pkg, fn, rng) {
						return true
					}
					findings = append(findings, Finding{
						Check: "detmap",
						Pos:   pkg.Fset.Position(rng.Pos()),
						Msg: fmt.Sprintf("range over map %s: iteration order is nondeterministic; collect and sort the keys before use, or add //lint:allow detmap <reason> if the body is order-insensitive",
							types.ExprString(rng.X)),
					})
					return true
				})
			}
		}
	}
	return findings
}

// isClearIdiom reports whether rng is the order-insensitive map-clearing
// loop: a single-statement body `delete(m, k)` deleting the ranged map's
// own key.
func isClearIdiom(pkg *Package, rng *ast.RangeStmt) bool {
	if len(rng.Body.List) != 1 {
		return false
	}
	es, ok := rng.Body.List[0].(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok || len(call.Args) != 2 {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "delete" {
		return false
	}
	key, ok := rng.Key.(*ast.Ident)
	if !ok {
		return false
	}
	arg1, ok := call.Args[1].(*ast.Ident)
	return ok && arg1.Name == key.Name &&
		types.ExprString(call.Args[0]) == types.ExprString(rng.X)
}

// isCollectAndSort reports whether rng is the sorted-keys idiom: the loop
// body only collects (appends into slices, accumulates integer sums, and
// may guard those with plain if statements), and at least one collected
// slice is passed to a sort.* or slices.Sort* call later in the same
// function — so the map order never outlives the loop.
func isCollectAndSort(pkg *Package, fn *ast.FuncDecl, rng *ast.RangeStmt) bool {
	targets := make(map[string]bool)
	if !collectOnly(pkg, rng.Body.List, targets) || len(targets) == 0 {
		return false
	}
	return sortedAfter(pkg, fn, rng, targets)
}

// collectOnly reports whether every statement is order-insensitive
// collection: an append into a slice (`s = append(s, ...)`), an integer
// accumulation (`n += x`, `n++` — commutative, so order cannot matter), or
// an if statement (without else) whose body satisfies the same rules.
// Collected append targets are recorded in targets.
func collectOnly(pkg *Package, list []ast.Stmt, targets map[string]bool) bool {
	for _, stmt := range list {
		switch s := stmt.(type) {
		case *ast.IfStmt:
			if s.Else != nil || s.Init != nil || !collectOnly(pkg, s.Body.List, targets) {
				return false
			}
		case *ast.IncDecStmt:
			if !isIntegerType(pkg, s.X) {
				return false
			}
		case *ast.AssignStmt:
			if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
				return false
			}
			if s.Tok == token.ADD_ASSIGN || s.Tok == token.OR_ASSIGN {
				// Integer sums and bit-or accumulate commutatively; float
				// addition does not (rounding depends on order).
				if !isIntegerType(pkg, s.Lhs[0]) {
					return false
				}
				continue
			}
			call, ok := s.Rhs[0].(*ast.CallExpr)
			if !ok {
				return false
			}
			id, ok := call.Fun.(*ast.Ident)
			if !ok || id.Name != "append" || len(call.Args) == 0 {
				return false
			}
			if types.ExprString(s.Lhs[0]) != types.ExprString(call.Args[0]) {
				return false
			}
			targets[types.ExprString(s.Lhs[0])] = true
		default:
			return false
		}
	}
	return true
}

// isIntegerType reports whether e has an integer type.
func isIntegerType(pkg *Package, e ast.Expr) bool {
	tv, ok := pkg.Info.Types[e]
	if !ok {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// sortedAfter reports whether one of the collected slices is sorted by a
// sort.* or slices.* call after the range loop in the same function.
func sortedAfter(pkg *Package, fn *ast.FuncDecl, rng *ast.RangeStmt, targets map[string]bool) bool {
	sorted := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if sorted {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkgID, ok := sel.X.(*ast.Ident)
		if !ok || (pkgID.Name != "sort" && pkgID.Name != "slices") {
			return true
		}
		// The sorted value must be (or contain) one of the collected
		// slices: sort.Slice(keys, ...), sort.Ints(keys), ...
		ast.Inspect(call.Args[0], func(m ast.Node) bool {
			if e, ok := m.(ast.Expr); ok && targets[types.ExprString(e)] {
				sorted = true
				return false
			}
			return true
		})
		return true
	})
	return sorted
}
