package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
)

// HotCall flags dynamic dispatch inside //mpichv:noalloc-annotated
// functions: interface method calls, func-value invocations, and defer
// statements. None of these allocate by themselves, but all three defeat
// the inliner on exactly the paths TestHotPathAllocations measures —
// an interface call or a call through a stored func value is an indirect
// jump the compiler cannot flatten, and a defer carries fixed bookkeeping
// per invocation. A site that is deliberate (a never-nil hook invoked once
// per rare event, a defer on a cold error path) is allow-listed with
// //lint:allow hotcall <reason>.
type HotCall struct{}

// Name implements Check.
func (HotCall) Name() string { return "hotcall" }

// Desc implements Check.
func (HotCall) Desc() string {
	return "functions annotated //mpichv:noalloc must not use dynamic dispatch (interface calls, func-value invocations, defers)"
}

// Run implements Check.
func (HotCall) Run(pkg *Package) []Finding {
	var findings []Finding
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !hasNoAllocDirective(fn) {
				continue
			}
			findings = append(findings, hotCallSites(pkg, fn)...)
		}
	}
	return findings
}

// hotCallSites walks one annotated body and flags each dynamic-dispatch
// construct.
func hotCallSites(pkg *Package, fn *ast.FuncDecl) []Finding {
	var findings []Finding
	flag := func(pos ast.Node, format string, args ...any) {
		findings = append(findings, Finding{
			Check: "hotcall",
			Pos:   pkg.Fset.Position(pos.Pos()),
			Msg:   fmt.Sprintf("%s is annotated %s: %s", fn.Name.Name, NoAllocDirective, fmt.Sprintf(format, args...)),
		})
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.DeferStmt:
			flag(x, "defer carries per-invocation bookkeeping and blocks inlining")
		case *ast.CallExpr:
			classifyDynamicCall(pkg, x, flag)
		}
		return true
	})
	return findings
}

// classifyDynamicCall reports a call as interface dispatch or a func-value
// invocation when type information says the callee is not statically known.
// Builtins, conversions, and direct calls to declared functions or methods
// stay silent.
func classifyDynamicCall(pkg *Package, call *ast.CallExpr, flag func(pos ast.Node, format string, args ...any)) {
	fun := ast.Unparen(call.Fun)
	switch f := fun.(type) {
	case *ast.Ident:
		switch pkg.Info.Uses[f].(type) {
		case *types.Var:
			flag(call, "call through func value %s is dynamic dispatch", f.Name)
		}
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[f]; ok {
			switch sel.Kind() {
			case types.MethodVal:
				if types.IsInterface(sel.Recv()) {
					flag(call, "interface method call %s.%s is dynamic dispatch", types.TypeString(sel.Recv(), types.RelativeTo(pkg.Types)), f.Sel.Name)
				}
			case types.FieldVal:
				flag(call, "call through func-valued field %s is dynamic dispatch", f.Sel.Name)
			}
			return
		}
		// Package-qualified: dynamic only if the selector names a variable.
		if _, ok := pkg.Info.Uses[f.Sel].(*types.Var); ok {
			flag(call, "call through func value %s is dynamic dispatch", f.Sel.Name)
		}
	case *ast.FuncLit:
		flag(call, "immediately-invoked closure is dynamic dispatch")
	}
}
