package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Interprocedural layer: a static call graph over every module package
// the loader has seen, used by the module-level checks (hotpath-alloc,
// goroutine-capture). The graph is conservative by construction:
//
//   - direct calls and method calls on concrete receivers resolve to
//     exactly one target;
//   - method calls through an interface resolve to every in-module
//     named type whose method set implements that interface;
//   - calls through a func value resolve to the literals assigned to
//     that variable inside the same function, and are otherwise marked
//     Dynamic ("cannot prove" for checks that need a proof);
//   - every function literal created in a body is linked to its
//     enclosing node, so a check can treat "the literal may run where
//     it was made" as an edge.
//
// Nodes are *types.Func declarations plus one synthetic node per
// *ast.FuncLit; both carry their bodies so checks can re-walk them.

// FuncNode is one call-graph node: a declared function or method, or a
// function literal.
type FuncNode struct {
	// Pkg is the package the function's body lives in.
	Pkg *Package
	// Obj is the declared function object; nil for literals.
	Obj *types.Func
	// Decl is the declaration; nil for literals.
	Decl *ast.FuncDecl
	// Lit is the literal; nil for declared functions.
	Lit *ast.FuncLit
	// Parent is the enclosing node for literals, nil otherwise.
	Parent *FuncNode
	// Name is the display name used in call chains, e.g.
	// "(*channel.Model).ResponseInto" or "parallel.RunTrials$1".
	Name string
	// Calls lists the call sites in the node's own body, in source
	// order (nested literals' calls belong to their own nodes).
	Calls []*CallSite
	// Lits lists the literals created directly in this body, in
	// source order.
	Lits []*FuncNode
}

// Body returns the node's statement body.
func (n *FuncNode) Body() *ast.BlockStmt {
	if n.Decl != nil {
		return n.Decl.Body
	}
	return n.Lit.Body
}

// CallSite is one call expression inside a FuncNode.
type CallSite struct {
	// Call is the expression.
	Call *ast.CallExpr
	// Targets are the in-module callees (one for a static call,
	// several for a conservatively resolved interface call).
	Targets []*FuncNode
	// Extern is the out-of-module callee for static calls into the
	// standard library; nil otherwise.
	Extern *types.Func
	// Dynamic marks a call through a func value that could not be
	// resolved to literals.
	Dynamic bool
	// Interface marks a conservatively resolved interface dispatch.
	Interface bool
	// Go and Defer mark `go f(...)` and `defer f(...)` sites.
	Go    bool
	Defer bool
}

// Program is the module-wide view handed to module-level checks.
type Program struct {
	Fset *token.FileSet
	// Pkgs is the package universe, sorted by import path. It covers
	// the selected packages plus everything they transitively import
	// inside the module, so call chains do not stop at package
	// boundaries.
	Pkgs  []*Package
	Nodes []*FuncNode

	byObj map[*types.Func]*FuncNode
	byLit map[*ast.FuncLit]*FuncNode
	named []*types.Named
}

// buildProgram constructs the call graph over pkgs (the loader's
// memoized universe).
func buildProgram(fset *token.FileSet, pkgs []*Package) *Program {
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].ImportPath < pkgs[j].ImportPath })
	p := &Program{
		Fset:  fset,
		Pkgs:  pkgs,
		byObj: map[*types.Func]*FuncNode{},
		byLit: map[*ast.FuncLit]*FuncNode{},
	}
	// Pass 1: nodes for declared functions, then their literals.
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				n := &FuncNode{Pkg: pkg, Obj: obj, Decl: fd, Name: funcDisplayName(pkg, obj, fd)}
				p.Nodes = append(p.Nodes, n)
				if obj != nil {
					p.byObj[obj] = n
				}
			}
		}
		// Named types for interface dispatch resolution.
		if pkg.Types != nil {
			scope := pkg.Types.Scope()
			for _, name := range scope.Names() {
				tn, ok := scope.Lookup(name).(*types.TypeName)
				if !ok || tn.IsAlias() {
					continue
				}
				named, ok := tn.Type().(*types.Named)
				if !ok || named.TypeParams().Len() > 0 || types.IsInterface(named) {
					continue
				}
				p.named = append(p.named, named)
			}
		}
	}
	// Literals, recursively, so nesting maps to Parent links.
	for _, n := range append([]*FuncNode(nil), p.Nodes...) {
		p.collectLits(n)
	}
	// Pass 2: resolve call sites.
	for _, n := range p.Nodes {
		p.resolveCalls(n)
	}
	return p
}

// collectLits creates nodes for the literals directly inside n's body
// and recurses into them.
func (p *Program) collectLits(n *FuncNode) {
	body := n.Body()
	if body == nil {
		return
	}
	ast.Inspect(body, func(node ast.Node) bool {
		lit, ok := node.(*ast.FuncLit)
		if !ok {
			return true
		}
		ln := &FuncNode{
			Pkg:    n.Pkg,
			Lit:    lit,
			Parent: n,
			Name:   fmt.Sprintf("%s$%d", n.Name, len(n.Lits)+1),
		}
		n.Lits = append(n.Lits, ln)
		p.Nodes = append(p.Nodes, ln)
		p.byLit[lit] = ln
		p.collectLits(ln)
		return false // the literal's interior belongs to ln
	})
}

// funcDisplayName renders a compact chain name for a declared function.
func funcDisplayName(pkg *Package, obj *types.Func, fd *ast.FuncDecl) string {
	base := "?"
	if pkg.Types != nil {
		base = pkg.Types.Name()
	}
	name := fd.Name.Name
	if obj != nil {
		if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
			rt := sig.Recv().Type()
			star := ""
			if pt, ok := rt.(*types.Pointer); ok {
				rt = pt.Elem()
				star = "*"
			}
			tn := "?"
			if nn, ok := rt.(*types.Named); ok {
				tn = nn.Obj().Name()
			}
			return fmt.Sprintf("(%s%s.%s).%s", star, base, tn, name)
		}
	}
	return base + "." + name
}

// unparen strips parentheses.
func unparen(e ast.Expr) ast.Expr {
	for {
		pe, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = pe.X
	}
}

// resolveCalls fills n.Calls from n's own body.
func (p *Program) resolveCalls(n *FuncNode) {
	body := n.Body()
	if body == nil {
		return
	}
	goCalls := map[*ast.CallExpr]bool{}
	deferCalls := map[*ast.CallExpr]bool{}
	inspectOwn(body, func(node ast.Node) {
		switch s := node.(type) {
		case *ast.GoStmt:
			goCalls[s.Call] = true
		case *ast.DeferStmt:
			deferCalls[s.Call] = true
		}
	})
	inspectOwn(body, func(node ast.Node) {
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return
		}
		site := p.resolveCall(n, call)
		if site == nil {
			return
		}
		site.Go = goCalls[call]
		site.Defer = deferCalls[call]
		n.Calls = append(n.Calls, site)
	})
}

// inspectOwn walks body but does not descend into nested function
// literals: their contents belong to their own nodes.
func inspectOwn(body *ast.BlockStmt, fn func(ast.Node)) {
	ast.Inspect(body, func(node ast.Node) bool {
		if _, ok := node.(*ast.FuncLit); ok {
			return false
		}
		if node != nil {
			fn(node)
		}
		return true
	})
}

// resolveCall classifies one call expression. It returns nil for
// builtins and type conversions — those are constructs, not edges.
func (p *Program) resolveCall(n *FuncNode, call *ast.CallExpr) *CallSite {
	info := n.Pkg.Info
	fun := unparen(call.Fun)
	// Generic instantiation f[T](...) wraps the name.
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		if _, ok := info.TypeOf(ix.X).(*types.Signature); ok {
			fun = unparen(ix.X)
		}
	case *ast.IndexListExpr:
		if _, ok := info.TypeOf(ix.X).(*types.Signature); ok {
			fun = unparen(ix.X)
		}
	}
	switch f := fun.(type) {
	case *ast.FuncLit:
		if ln := p.byLit[f]; ln != nil {
			return &CallSite{Call: call, Targets: []*FuncNode{ln}}
		}
		return &CallSite{Call: call, Dynamic: true}
	case *ast.Ident:
		switch obj := info.Uses[f].(type) {
		case *types.Builtin:
			return nil
		case *types.TypeName:
			return nil // conversion
		case *types.Func:
			return p.staticSite(call, obj)
		case *types.Var:
			// Func value: resolve to literals assigned to it here.
			if lits := p.litsAssignedTo(n, obj); len(lits) > 0 {
				return &CallSite{Call: call, Targets: lits}
			}
			return &CallSite{Call: call, Dynamic: true}
		default:
			return &CallSite{Call: call, Dynamic: true}
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[f]; ok && sel.Kind() == types.MethodVal {
			m, _ := sel.Obj().(*types.Func)
			if m == nil {
				return &CallSite{Call: call, Dynamic: true}
			}
			if types.IsInterface(sel.Recv()) {
				return p.interfaceSite(call, sel.Recv(), m.Name())
			}
			return p.staticSite(call, m)
		}
		switch obj := info.Uses[f.Sel].(type) {
		case *types.Func:
			return p.staticSite(call, obj)
		case *types.TypeName:
			return nil // conversion through a qualified type
		default:
			return &CallSite{Call: call, Dynamic: true}
		}
	case *ast.ArrayType, *ast.MapType, *ast.ChanType, *ast.StarExpr,
		*ast.InterfaceType, *ast.StructType, *ast.FuncType:
		return nil // conversion
	default:
		return &CallSite{Call: call, Dynamic: true}
	}
}

// staticSite builds a site for a statically known callee.
func (p *Program) staticSite(call *ast.CallExpr, obj *types.Func) *CallSite {
	if n := p.byObj[obj]; n != nil {
		return &CallSite{Call: call, Targets: []*FuncNode{n}}
	}
	return &CallSite{Call: call, Extern: obj}
}

// interfaceSite resolves a method call through an interface to every
// in-module named type implementing it — the documented conservative
// over-approximation.
func (p *Program) interfaceSite(call *ast.CallExpr, recv types.Type, method string) *CallSite {
	iface, ok := recv.Underlying().(*types.Interface)
	if !ok {
		return &CallSite{Call: call, Dynamic: true}
	}
	var targets []*FuncNode
	seen := map[*FuncNode]bool{}
	for _, named := range p.named {
		if !types.Implements(named, iface) && !types.Implements(types.NewPointer(named), iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(named), true, named.Obj().Pkg(), method)
		m, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		if n := p.byObj[m]; n != nil && !seen[n] {
			seen[n] = true
			targets = append(targets, n)
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].Name < targets[j].Name })
	return &CallSite{Call: call, Targets: targets, Interface: true}
}

// litsAssignedTo finds the function literals assigned to obj inside
// n's own body (`f := func(){...}` / `f = func(){...}`).
func (p *Program) litsAssignedTo(n *FuncNode, obj *types.Var) []*FuncNode {
	var lits []*FuncNode
	info := n.Pkg.Info
	inspectOwn(n.Body(), func(node ast.Node) {
		as, ok := node.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || info.ObjectOf(id) != obj {
				continue
			}
			if lit, ok := unparen(as.Rhs[i]).(*ast.FuncLit); ok {
				if ln := p.byLit[lit]; ln != nil {
					lits = append(lits, ln)
				}
			}
		}
	})
	return lits
}

// externName renders the stable display name of an out-of-module
// callee, e.g. "fmt.Sprintf" or "(*sync.Mutex).Lock".
func externName(obj *types.Func) string {
	full := obj.FullName()
	// FullName uses full import paths; shorten "a/b/c.F" to "c.F" and
	// "(*a/b.T).M" to "(*b.T).M".
	lead := ""
	for len(full) > 0 && (full[0] == '(' || full[0] == '*') {
		lead += full[:1]
		full = full[1:]
	}
	if i := strings.LastIndex(full, "/"); i >= 0 {
		full = full[i+1:]
	}
	return lead + full
}
