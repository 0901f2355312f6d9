package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// PoolDiscipline enforces the packet-pool lifecycle contract around
// GetPacket/PutPacket (matched by name, so the check also covers test
// fixtures and any future pool with the same protocol):
//
//   - use after put: on a straight-line statement sequence, a variable
//     must not be touched after a non-deferred PutPacket(v);
//   - double put: the same variable must not be released twice on a
//     straight-line path without an intervening reassignment;
//   - leak: a GetPacket result must reach a PutPacket, be handed to
//     another function (ownership transfer — the wire send path), be
//     stored, or be returned; a packet that does none of these can never
//     be released.
//
// The analysis is intra-procedural and branch-insensitive: statements are
// scanned in order within each block, so puts in one arm of an if are
// never confused with uses in the other. Deferred puts release at
// function exit and therefore never trigger the use-after rule.
type PoolDiscipline struct{}

// Name implements Check.
func (PoolDiscipline) Name() string { return "pooldiscipline" }

// Run implements Check.
func (PoolDiscipline) Run(m *Module) []Finding {
	var findings []Finding
	for _, pkg := range m.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				findings = append(findings, checkPoolLeaks(pkg, fn)...)
			}
			// Straight-line rules apply to every statement list in the file,
			// including closure bodies and switch-case arms.
			ast.Inspect(file, func(n ast.Node) bool {
				var list []ast.Stmt
				switch x := n.(type) {
				case *ast.BlockStmt:
					list = x.List
				case *ast.CaseClause:
					list = x.Body
				case *ast.CommClause:
					list = x.Body
				default:
					return true
				}
				findings = append(findings, checkStraightLine(pkg, list)...)
				return true
			})
		}
	}
	return findings
}

// poolCall returns the single-ident argument of a GetPacket/PutPacket
// call (matched by callee name) or nil.
func poolCall(call *ast.CallExpr, name string) *ast.Ident {
	var callee string
	switch f := call.Fun.(type) {
	case *ast.Ident:
		callee = f.Name
	case *ast.SelectorExpr:
		callee = f.Sel.Name
	default:
		return nil
	}
	if callee != name || len(call.Args) != 1 {
		return nil
	}
	id, _ := call.Args[0].(*ast.Ident)
	return id
}

// isGetPacket reports whether call is a GetPacket() acquisition.
func isGetPacket(call *ast.CallExpr) bool {
	switch f := call.Fun.(type) {
	case *ast.Ident:
		return f.Name == "GetPacket"
	case *ast.SelectorExpr:
		return f.Sel.Name == "GetPacket"
	}
	return false
}

// obj resolves an identifier to its object (definition or use).
func obj(pkg *Package, id *ast.Ident) types.Object {
	if o := pkg.Info.Defs[id]; o != nil {
		return o
	}
	return pkg.Info.Uses[id]
}

// checkStraightLine applies the use-after-put and double-put rules to one
// statement list.
func checkStraightLine(pkg *Package, list []ast.Stmt) []Finding {
	var findings []Finding
	put := make(map[types.Object]ast.Stmt) // object -> releasing statement
	for _, stmt := range list {
		// A reassignment of a released variable re-arms it before its
		// uses in the same statement are examined (v = GetPacket()).
		if as, ok := stmt.(*ast.AssignStmt); ok {
			cleared := false
			for _, lhs := range as.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					if o := obj(pkg, id); o != nil {
						if _, was := put[o]; was {
							delete(put, o)
							cleared = true
						}
					}
				}
			}
			if cleared {
				// Only the RHS can still use the old value.
				for o := range usedObjects(pkg, as.Rhs[0]) {
					if s, was := put[o]; was {
						findings = append(findings, useAfterPut(pkg, as.Pos(), o, s))
					}
				}
				continue
			}
		}
		putID, deferred := putTarget(stmt)
		var putObj types.Object
		if putID != nil {
			putObj = obj(pkg, putID)
		}
		for o := range usedObjects(pkg, stmt) {
			if o == putObj {
				continue // the release itself; double puts are reported below
			}
			if s, was := put[o]; was {
				findings = append(findings, useAfterPut(pkg, stmt.Pos(), o, s))
				delete(put, o) // one report per release site
			}
		}
		if putObj != nil && !deferred {
			if _, was := put[putObj]; was {
				findings = append(findings, Finding{
					Check: "pooldiscipline",
					Pos:   pkg.Fset.Position(stmt.Pos()),
					Msg:   fmt.Sprintf("double PutPacket(%s) on a straight-line path: the packet was already released", putID.Name),
				})
			}
			put[putObj] = stmt
		}
	}
	return findings
}

// useAfterPut builds the use-after-release finding.
func useAfterPut(pkg *Package, at token.Pos, o types.Object, release ast.Stmt) Finding {
	return Finding{
		Check: "pooldiscipline",
		Pos:   pkg.Fset.Position(at),
		Msg: fmt.Sprintf("%s is used after PutPacket(%s) at line %d: a released packet belongs to the pool and may be reused concurrently",
			o.Name(), o.Name(), pkg.Fset.Position(release.Pos()).Line),
	}
}

// putTarget returns the ident released by stmt if it is a direct or
// deferred PutPacket call, and whether it was deferred.
func putTarget(stmt ast.Stmt) (id *ast.Ident, deferred bool) {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			return poolCall(call, "PutPacket"), false
		}
	case *ast.DeferStmt:
		return poolCall(s.Call, "PutPacket"), true
	}
	return nil, false
}

// usedObjects collects the objects of identifiers read under n. Writes to
// a variable's fields (v.Kind = ...) count as uses of v; redefinitions of
// v itself are handled by the caller.
func usedObjects(pkg *Package, n ast.Node) map[types.Object]bool {
	used := make(map[types.Object]bool)
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if o := pkg.Info.Uses[id]; o != nil {
				used[o] = true
			}
		}
		return true
	})
	return used
}

// checkPoolLeaks applies the leak rule: every GetPacket result must reach
// a put, a transfer, a store, or a return somewhere in the enclosing
// function (closures included — the search is over the whole body).
func checkPoolLeaks(pkg *Package, fn *ast.FuncDecl) []Finding {
	// acquired[o] = the GetPacket call that defined o.
	acquired := make(map[types.Object]*ast.CallExpr)
	var order []types.Object
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok || !isGetPacket(call) || len(as.Lhs) != 1 {
			return true
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok {
			return true
		}
		if o := obj(pkg, id); o != nil {
			if _, seen := acquired[o]; !seen {
				acquired[o] = call
				order = append(order, o)
			}
		}
		return true
	})
	if len(acquired) == 0 {
		return nil
	}

	released := make(map[types.Object]bool)
	parents := parentMap(fn.Body)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		o := pkg.Info.Uses[id]
		if o == nil {
			return true
		}
		if _, tracked := acquired[o]; !tracked || released[o] {
			return true
		}
		switch p := parents[id].(type) {
		case *ast.CallExpr:
			// Any call taking the packet — PutPacket or an ownership
			// transfer like ep.Send(..., pkt) — discharges it.
			for _, a := range p.Args {
				if a == id {
					released[o] = true
				}
			}
		case *ast.ReturnStmt, *ast.CompositeLit, *ast.KeyValueExpr, *ast.SendStmt, *ast.IndexExpr:
			released[o] = true
		case *ast.AssignStmt:
			// Appearing on the right-hand side stores or aliases the
			// packet: ownership moved.
			for _, r := range p.Rhs {
				if r == id {
					released[o] = true
				}
			}
		}
		return true
	})

	var findings []Finding
	for _, o := range order {
		if !released[o] {
			findings = append(findings, Finding{
				Check: "pooldiscipline",
				Pos:   pkg.Fset.Position(acquired[o].Pos()),
				Msg: fmt.Sprintf("GetPacket result %s is neither released with PutPacket nor handed off: the packet leaks from the pool",
					o.Name()),
			})
		}
	}
	return findings
}
