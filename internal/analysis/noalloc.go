package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"strings"
)

// NoAllocDirective marks a function that must stay allocation-free in the
// steady state: a root of the noalloc check's walk, and a boundary other
// roots' walks stop at (it is verified from its own root). It is applied
// to the proven-zero-alloc paths (reducer append/piggyback, the mailbox
// ring, obs nil-recorder emission, LatencyHist recording), each of which
// a row of the runtime TestHotPathAllocations executes.
const NoAllocDirective = "//mpichv:noalloc"

// AmortizedDirective marks a function as a deliberate allocation boundary
// on an otherwise allocation-free path: a grow/refill slow path (ring
// doubling, slab block allocation, free-list refill) whose cost amortizes
// to zero over the steady state, or a cold abort path. The noalloc walk
// stops at amortized functions instead of descending into them. The
// directive must carry a written reason,
//
//	//mpichv:amortized <reason>
//
// explaining why the allocation cannot land on the steady-state path; a
// reasonless directive is itself a finding (check "lint-directive").
const AmortizedDirective = "//mpichv:amortized"

// NoAlloc is the one static hot-path check. From every function annotated
// //mpichv:noalloc it walks the module's static call edges — direct calls
// and method calls on concrete receivers, across packages — and at every
// function it visits, the root included, reports
//
//   - allocating constructs: new, make, heap-escaping or slice/map
//     composite literals, append whose result is not stored back into its
//     own buffer, string concatenation and string<->[]byte/[]rune
//     conversions, fmt.* calls, closures, and goroutine launches;
//   - dynamic dispatch: interface method calls, func-value invocations and
//     defers. These defeat the inliner on exactly the paths
//     TestHotPathAllocations measures, and the walk cannot see past them:
//     reporting every call it cannot follow is what lets it follow static
//     edges only and still miss nothing. A deliberate site (a never-nil
//     hook, a callback that is the iteration contract) is allow-listed
//     with a reason, which certifies its targets by hand.
//
// The walk does not descend into a callee that is itself annotated
// //mpichv:noalloc (verified from its own root) or //mpichv:amortized
// <reason> (a deliberate grow/refill or cold-path allocation boundary).
// Calls into the standard library are not followed: the hot paths' stdlib
// leaves (append-style binary codecs, math/bits) do not allocate, and fmt
// is flagged at the call site.
//
// Findings are reported at the offending construct and name the call chain
// from the annotated root, so the line CI points at is the line to fix.
// The runtime TestHotPathAllocations remains the authority on the composed
// steady state; it executes every annotated root.
type NoAlloc struct{}

// Name implements Check.
func (NoAlloc) Name() string { return "noalloc" }

// Desc implements Check.
func (NoAlloc) Desc() string {
	return "//mpichv:noalloc functions and their static callees must not allocate or dispatch dynamically (boundaries: //mpichv:noalloc, //mpichv:amortized <reason>)"
}

// Run implements Check. Traversal is deterministic: roots in position
// order, calls in source order; every module function is scanned at most
// once, attributed to the first chain that reaches it.
func (NoAlloc) Run(m *Module) []Finding {
	funcs, byObj := hotFuncs(m)
	findings := directiveFindings(funcs)
	visited := make(map[*hotFunc]bool)

	var visit func(f *hotFunc, chain []string)
	visit = func(f *hotFunc, chain []string) {
		where := chain[0] + " is annotated " + NoAllocDirective
		if len(chain) > 1 {
			where = fmt.Sprintf("%s is reached from %s root %s via %s",
				chain[len(chain)-1], NoAllocDirective, chain[0], strings.Join(chain, " -> "))
		}
		report := func(pos token.Pos, msg string) {
			findings = append(findings, Finding{"noalloc", f.pkg.Fset.Position(pos), where + ": " + msg})
		}
		for _, site := range allocSites(f.pkg, f.decl) {
			report(site.pos, site.msg)
		}
		for _, call := range hotCalls(f.pkg, f.decl) {
			if call.dynamic != "" {
				report(call.pos, call.dynamic)
				continue
			}
			callee := byObj[call.callee.Origin()]
			if callee == nil || callee.noalloc || callee.amortized || visited[callee] {
				continue
			}
			visited[callee] = true
			visit(callee, append(chain[:len(chain):len(chain)], displayName(callee.fn)))
		}
	}
	for _, f := range funcs {
		if f.noalloc {
			visit(f, []string{displayName(f.fn)})
		}
	}
	return findings
}

// hotFunc is one module function as the walk sees it: its declaration and
// the hot-path directives on it.
type hotFunc struct {
	fn   *types.Func // canonical object (Origin for generic functions)
	decl *ast.FuncDecl
	pkg  *Package
	// noalloc and amortized report the two directives; reason is the text
	// following //mpichv:amortized (empty when missing — a finding).
	noalloc, amortized bool
	reason             string
}

// hotFuncs indexes every function declaration of the module that has a
// body, in position order (packages by path, files by name, declarations
// in source order), and by canonical function object.
func hotFuncs(m *Module) ([]*hotFunc, map[*types.Func]*hotFunc) {
	var funcs []*hotFunc
	byObj := make(map[*types.Func]*hotFunc)
	for _, pkg := range m.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				f := &hotFunc{fn: obj.Origin(), decl: fd, pkg: pkg}
				_, f.noalloc = docDirective(fd, NoAllocDirective)
				f.reason, f.amortized = docDirective(fd, AmortizedDirective)
				funcs = append(funcs, f)
				byObj[f.fn] = f
			}
		}
	}
	return funcs, byObj
}

// docDirective reports whether fn's doc comment carries the directive, and
// the text following it.
func docDirective(fn *ast.FuncDecl, directive string) (rest string, ok bool) {
	if fn.Doc == nil {
		return "", false
	}
	for _, c := range fn.Doc.List {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(c.Text), directive); ok {
			return strings.TrimSpace(rest), true
		}
	}
	return "", false
}

// directiveFindings validates the //mpichv:amortized grammar across the
// module: the reason is mandatory, and a function cannot be both a
// verified-noalloc root and an amortized allocation boundary.
func directiveFindings(funcs []*hotFunc) []Finding {
	var findings []Finding
	for _, f := range funcs {
		if !f.amortized {
			continue
		}
		pos := f.pkg.Fset.Position(f.decl.Pos())
		if f.reason == "" {
			findings = append(findings, Finding{DirectiveCheck, pos,
				fmt.Sprintf("%s on %s carries no reason: every amortized boundary must say why its allocations stay off the steady-state path",
					AmortizedDirective, displayName(f.fn))})
		}
		if f.noalloc {
			findings = append(findings, Finding{DirectiveCheck, pos,
				fmt.Sprintf("%s is annotated both %s and %s: a function is either verified allocation-free or a deliberate allocation boundary, not both",
					displayName(f.fn), NoAllocDirective, AmortizedDirective)})
		}
	}
	return findings
}

// displayName renders a function object as <pkgbase>.<recv>.<name>, e.g.
// "causal.(*Vcausal).append" or "event.AppendFlat" — the form findings
// use.
func displayName(fn *types.Func) string {
	name := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		rt := sig.Recv().Type()
		open, close := "", ""
		if p, ok := rt.(*types.Pointer); ok {
			rt, open, close = p.Elem(), "(*", ")"
		}
		recv := rt.String()
		if named, ok := rt.(*types.Named); ok {
			recv = named.Obj().Name()
		}
		name = open + recv + close + "." + name
	}
	if fn.Pkg() != nil {
		return path.Base(fn.Pkg().Path()) + "." + name
	}
	return name
}

// hotCall is one call site (or defer) in a walked body: either a
// statically resolved callee for the walk to follow, or a message naming
// the dynamic dispatch it cannot follow.
type hotCall struct {
	pos     token.Pos
	callee  *types.Func
	dynamic string
}

// hotCalls scans one function body in source order (closures included —
// their calls belong to the enclosing function) and classifies every call
// and defer. Builtins and type conversions are not calls and are omitted.
func hotCalls(pkg *Package, fn *ast.FuncDecl) []hotCall {
	var calls []hotCall
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.DeferStmt:
			calls = append(calls, hotCall{pos: x.Pos(), dynamic: "defer carries per-invocation bookkeeping and blocks inlining"})
		case *ast.CallExpr:
			if callee, dynamic := callTarget(pkg, x); callee != nil || dynamic != "" {
				calls = append(calls, hotCall{x.Pos(), callee, dynamic})
			}
		}
		return true
	})
	return calls
}

// callTarget resolves one call expression to the declared function or
// concrete method it names, or — when type information says the callee is
// not statically known — to a message naming the dynamic dispatch. Both
// are zero for builtins and type conversions.
func callTarget(pkg *Package, call *ast.CallExpr) (callee *types.Func, dynamic string) {
	fun := ast.Unparen(call.Fun)
	if tv, ok := pkg.Info.Types[fun]; ok && (tv.IsType() || tv.IsBuiltin()) {
		return nil, ""
	}
	// Generic instantiation: f[T](...) — unwrap to the function operand.
	switch idx := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(idx.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(idx.X)
	}
	switch f := fun.(type) {
	case *ast.Ident:
		if obj, ok := pkg.Info.Uses[f].(*types.Func); ok {
			return obj, ""
		}
		return nil, fmt.Sprintf("call through func value %s is dynamic dispatch", f.Name)
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[f]; ok {
			if sel.Kind() == types.FieldVal {
				return nil, fmt.Sprintf("call through func-valued field %s is dynamic dispatch", f.Sel.Name)
			}
			if types.IsInterface(sel.Recv()) {
				return nil, fmt.Sprintf("interface method call %s.%s is dynamic dispatch",
					types.TypeString(sel.Recv(), types.RelativeTo(pkg.Types)), f.Sel.Name)
			}
			return sel.Obj().(*types.Func), ""
		}
		// No selection: a package-qualified reference pkg.F.
		if obj, ok := pkg.Info.Uses[f.Sel].(*types.Func); ok {
			return obj, ""
		}
		return nil, fmt.Sprintf("call through func value %s is dynamic dispatch", f.Sel.Name)
	case *ast.FuncLit:
		return nil, "immediately-invoked closure is dynamic dispatch"
	}
	return nil, "call through a computed func value is dynamic dispatch"
}

// allocSite is one allocating construct found in a function body: the
// position and a message naming the construct.
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
