package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// goroutine-capture: a closure that reaches a goroutine must not share
// single-owner state with its spawner. A closure crosses when it is
// launched with `go` directly, or passed (transitively) into a
// func-typed parameter that some callee hands to a goroutine, like
// parallel.RunTrials' trial function. Inside such a closure:
//
//   - a *stats.RNG declared outside it may be used only as a Split
//     receiver (Split derives a child without advancing the parent);
//   - a channel.Model-like variable (the model, or a lock-free holder
//     such as mac.Link) must not be captured at all: the model's
//     response cache and noise RNG are single-owner state;
//   - a net.Conn-like variable (a conn, or a lock-free holder of one)
//     must not be captured at all: unsynchronized writes interleave.
//
// Passing the value as a call argument hands ownership over and is
// allowed, except that `go f(r)` may pass an RNG only if the argument
// is split-fresh (the direct result of Split/NewRNG, or a local
// defined from one) or f provably only Splits its parameter.
//
// Two memoized per-(function, parameter) summaries drive the
// interprocedural part, both computed to a fixed point over the call
// graph:
//
//	runsInGoroutine(f, i): f's func-typed parameter i may be invoked
//	    on a goroutine spawned inside f or inside anything f forwards
//	    it to;
//	splitOnly(f, i): f's RNG parameter i is only ever used as a Split
//	    receiver, compared against nil, or forwarded to parameters
//	    that are themselves splitOnly.
//
// Known gaps (documented in DESIGN.md): RNGs smuggled through struct
// fields, and a split-fresh child captured by more than one goroutine,
// are not detected; the 50-seed determinism sweeps remain the dynamic
// backstop.

var goroutineCaptureCheck = &Check{
	Name: "goroutine-capture",
	Doc:  "a closure reaching a goroutine (go statement or a RunTrials-shaped parameter) may use an outer *stats.RNG only to Split it and must not capture a channel.Model-like or net.Conn-like variable",
	RunModule: func(mctx *ModuleContext) {
		newCapturePass(mctx).run()
	},
}

// isRNGVar reports whether t is stats.RNG or *stats.RNG.
func isRNGVar(t types.Type) bool {
	if t == nil {
		return false
	}
	if pt, ok := t.(*types.Pointer); ok {
		t = pt.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "RNG" && obj.Pkg() != nil &&
		pathEndsWith(obj.Pkg().Path(), "internal/stats")
}

func pathEndsWith(path, suffix string) bool {
	return path == suffix || (len(path) > len(suffix) &&
		path[len(path)-len(suffix)-1] == '/' && path[len(path)-len(suffix):] == suffix)
}

type paramKey struct {
	node *FuncNode
	idx  int
}

type capturePass struct {
	mctx *ModuleContext
	prog *Program
	// runsInGo: func-typed parameter escapes to a goroutine.
	runsInGo map[paramKey]bool
	// notSplitOnly: RNG parameter is drawn from (pessimistic
	// complement of the optimistic splitOnly summary).
	notSplitOnly map[paramKey]bool
	// params caches each declared node's parameter objects.
	params map[*FuncNode][]*types.Var
	// siteIndex maps call expressions back to their sites (lazy).
	siteIndex map[*ast.CallExpr]*CallSite
	// netConns caches each package's view of the net.Conn interface.
	netConns map[*types.Package]*types.Interface
	// reported dedupes rule-1 findings when a crossing literal nests
	// inside another crossing literal.
	reported map[token.Pos]bool
}

func newCapturePass(mctx *ModuleContext) *capturePass {
	return &capturePass{
		mctx:         mctx,
		prog:         mctx.Prog,
		runsInGo:     map[paramKey]bool{},
		notSplitOnly: map[paramKey]bool{},
		params:       map[*FuncNode][]*types.Var{},
		netConns:     map[*types.Package]*types.Interface{},
		reported:     map[token.Pos]bool{},
	}
}

func (r *capturePass) run() {
	r.computeRunsInGo()
	r.computeSplitOnly()
	for _, n := range r.prog.Nodes {
		r.checkNode(n)
	}
}

// paramsOf returns the declared (or literal) signature parameters.
func (r *capturePass) paramsOf(n *FuncNode) []*types.Var {
	if ps, ok := r.params[n]; ok {
		return ps
	}
	var sig *types.Signature
	if n.Obj != nil {
		sig, _ = n.Obj.Type().(*types.Signature)
	} else if n.Lit != nil {
		sig, _ = n.Pkg.Info.TypeOf(n.Lit).(*types.Signature)
	}
	var ps []*types.Var
	if sig != nil {
		for i := 0; i < sig.Params().Len(); i++ {
			ps = append(ps, sig.Params().At(i))
		}
	}
	r.params[n] = ps
	return ps
}

// computeRunsInGo iterates the goroutine-escape summary to a fixed
// point: parameter (n, i) escapes if `go p(...)`, if p is referenced
// inside a crossing literal of n, or if p is forwarded to an escaping
// parameter of a callee.
func (r *capturePass) computeRunsInGo() {
	for changed := true; changed; {
		changed = false
		for _, n := range r.prog.Nodes {
			for i, p := range r.paramsOf(n) {
				key := paramKey{n, i}
				if r.runsInGo[key] {
					continue
				}
				if _, ok := p.Type().Underlying().(*types.Signature); !ok {
					continue
				}
				if r.paramEscapes(n, p) {
					r.runsInGo[key] = true
					changed = true
				}
			}
		}
	}
}

func (r *capturePass) paramEscapes(n *FuncNode, p *types.Var) bool {
	escapes := false
	crossing := r.crossingLits(n)
	info := n.Pkg.Info
	// Referenced inside a crossing literal (including nested ones)?
	for _, lit := range crossing {
		ast.Inspect(lit.Lit, func(node ast.Node) bool {
			id, ok := node.(*ast.Ident)
			if ok && info.ObjectOf(id) == p {
				escapes = true
			}
			return !escapes
		})
	}
	if escapes {
		return true
	}
	for _, site := range n.Calls {
		if site.Go {
			// go p(...) directly.
			if id, ok := unparen(site.Call.Fun).(*ast.Ident); ok && info.ObjectOf(id) == p {
				return true
			}
		}
		// Forwarded to an escaping parameter.
		for j, arg := range site.Call.Args {
			id, ok := unparen(arg).(*ast.Ident)
			if !ok || info.ObjectOf(id) != p {
				continue
			}
			for _, t := range site.Targets {
				if r.runsInGo[paramKey{t, j}] {
					return true
				}
			}
		}
	}
	return false
}

// crossingLits returns the literals in n that reach a goroutine:
// `go lit(...)` or passed to a callee parameter with runsInGo.
func (r *capturePass) crossingLits(n *FuncNode) []*FuncNode {
	var out []*FuncNode
	seen := map[*FuncNode]bool{}
	add := func(ln *FuncNode) {
		if ln != nil && !seen[ln] {
			seen[ln] = true
			out = append(out, ln)
		}
	}
	for _, site := range n.Calls {
		if site.Go {
			if lit, ok := unparen(site.Call.Fun).(*ast.FuncLit); ok {
				add(r.prog.byLit[lit])
			}
		}
		for j, arg := range site.Call.Args {
			lit, ok := unparen(arg).(*ast.FuncLit)
			if !ok {
				continue
			}
			for _, t := range site.Targets {
				if r.runsInGo[paramKey{t, j}] {
					add(r.prog.byLit[lit])
				}
			}
		}
	}
	return out
}

// computeSplitOnly iterates the draw summary to a fixed point,
// pessimistically growing the set of RNG parameters that are drawn
// from (anything that is not provably Split-or-forward).
func (r *capturePass) computeSplitOnly() {
	for changed := true; changed; {
		changed = false
		for _, n := range r.prog.Nodes {
			for i, p := range r.paramsOf(n) {
				key := paramKey{n, i}
				if r.notSplitOnly[key] || !isRNGVar(p.Type()) {
					continue
				}
				if !r.usesAreSplitOnly(n, p) {
					r.notSplitOnly[key] = true
					changed = true
				}
			}
		}
	}
}

// splitOnly reports whether every target of a call treats parameter j
// as split-only. Extern and unresolved targets are assumed to draw.
func (r *capturePass) splitOnly(site *CallSite, j int) bool {
	if len(site.Targets) == 0 {
		return false
	}
	for _, t := range site.Targets {
		if j >= len(r.paramsOf(t)) || r.notSplitOnly[paramKey{t, j}] {
			return false
		}
	}
	return true
}

// usesAreSplitOnly scans every use of p in n's full body (nested
// literals included — a synchronous draw still advances the stream).
// The body, not the declaration, whose parameter list would read as
// spurious identifier "uses"; every node has a body (buildProgram
// skips bodyless declarations).
func (r *capturePass) usesAreSplitOnly(n *FuncNode, p *types.Var) bool {
	body := n.Body()
	info := n.Pkg.Info
	ok := true
	allowed := r.allowedUses(body, info, p)
	ast.Inspect(body, func(node ast.Node) bool {
		if !ok {
			return false
		}
		id, isIdent := node.(*ast.Ident)
		if !isIdent || info.ObjectOf(id) != p || allowed[id] {
			return true
		}
		ok = false
		return false
	})
	return ok
}

// allowedUses marks the identifier occurrences of obj that do not
// constitute a draw: Split receivers, nil comparisons, and arguments
// forwarded to split-only parameters.
func (r *capturePass) allowedUses(root ast.Node, info *types.Info, obj types.Object) map[*ast.Ident]bool {
	allowed := map[*ast.Ident]bool{}
	mark := func(e ast.Expr) {
		if id, ok := unparen(e).(*ast.Ident); ok && info.ObjectOf(id) == obj {
			allowed[id] = true
		}
	}
	ast.Inspect(root, func(node ast.Node) bool {
		switch e := node.(type) {
		case *ast.CallExpr:
			if sel, ok := unparen(e.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Split" {
				if _, isMethod := info.Selections[sel]; isMethod {
					mark(sel.X)
				}
			}
			// Forwarding into split-only parameters: resolved against
			// the owning node's call sites below (checkNode /
			// usesAreSplitOnly callers pre-resolve), here we accept
			// forwarding only when the callee is statically known.
			if site := r.siteFor(e); site != nil {
				for j, arg := range e.Args {
					if r.splitOnly(site, j) {
						mark(arg)
					}
				}
			}
		case *ast.BinaryExpr:
			if e.Op == token.EQL || e.Op == token.NEQ {
				if isNilExpr(e.X) {
					mark(e.Y)
				}
				if isNilExpr(e.Y) {
					mark(e.X)
				}
			}
		}
		return true
	})
	return allowed
}

// siteFor finds the CallSite of a call expression anywhere in the
// program (sites live on the node owning the body region).
func (r *capturePass) siteFor(call *ast.CallExpr) *CallSite {
	if r.siteIndex == nil {
		r.siteIndex = map[*ast.CallExpr]*CallSite{}
		for _, n := range r.prog.Nodes {
			for _, s := range n.Calls {
				r.siteIndex[s.Call] = s
			}
		}
	}
	return r.siteIndex[call]
}

// checkNode reports the goroutine-capture violations in one function.
func (r *capturePass) checkNode(n *FuncNode) {
	info := n.Pkg.Info

	// Rule 1: inside a crossing literal, an RNG declared outside it may
	// only be Split, and a model- or conn-like variable declared outside
	// it must not be used at all (one finding per variable).
	for _, lit := range r.crossingLits(n) {
		how := r.crossingVia(n, lit)
		allowedSets := map[types.Object]map[*ast.Ident]bool{}
		captured := map[types.Object]bool{}
		litLo, litHi := lit.Lit.Pos(), lit.Lit.End()
		ast.Inspect(lit.Lit, func(node ast.Node) bool {
			id, ok := node.(*ast.Ident)
			if !ok {
				return true
			}
			obj := info.ObjectOf(id)
			if obj == nil || (obj.Pos() >= litLo && obj.Pos() < litHi) || r.reported[id.Pos()] {
				return true // declared inside the goroutine's own scope
			}
			var msg string
			switch {
			case isRNGVar(obj.Type()):
				allowed := allowedSets[obj]
				if allowed == nil {
					allowed = r.allowedUses(lit.Lit, info, obj)
					allowedSets[obj] = allowed
				}
				if allowed[id] || r.freshLocal(n, obj) {
					return true
				}
				msg = fmt.Sprintf("RNG %q is drawn from inside a closure that crosses a goroutine boundary (%s) without Split; use %s.Split(label) and draw from the child", id.Name, how, id.Name)
			case r.capturable(n.Pkg, obj) && !captured[obj]:
				captured[obj] = true
				kind, fix := "a net.Conn-like value shared without synchronization", "pass it as a call argument or guard it behind a mutex-bearing session"
				if modelLike(obj.Type()) {
					kind, fix = "a channel.Model-like value whose response cache is single-owner state", "pass the model as a call argument or build it inside the closure"
				}
				msg = fmt.Sprintf("closure crossing a goroutine boundary (%s) captures %s %q, %s; %s", how, types.TypeString(obj.Type(), types.RelativeTo(n.Pkg.Types)), id.Name, kind, fix)
			default:
				return true
			}
			r.reported[id.Pos()] = true
			r.mctx.Reportf(id.Pos(), "%s", msg)
			return true
		})
	}

	// Rule 2: go f(r) must pass a split-fresh RNG or a split-only
	// parameter.
	for _, site := range n.Calls {
		if !site.Go {
			continue
		}
		if _, isLit := unparen(site.Call.Fun).(*ast.FuncLit); isLit {
			continue // rule 1 territory
		}
		for j, arg := range site.Call.Args {
			at := info.TypeOf(arg)
			if !isRNGVar(at) {
				continue
			}
			if r.freshExpr(n, arg) || r.splitOnly(site, j) {
				continue
			}
			callee := "the goroutine"
			if len(site.Targets) > 0 {
				callee = site.Targets[0].Name
			} else if site.Extern != nil {
				callee = externName(site.Extern)
			}
			r.mctx.Reportf(arg.Pos(),
				"RNG passed un-split across a goroutine boundary into %s; pass .Split(label) so each goroutine owns a private stream", callee)
		}
	}
}

// crossingVia describes how a literal reaches a goroutine, for the
// finding message.
func (r *capturePass) crossingVia(n *FuncNode, lit *FuncNode) string {
	for _, site := range n.Calls {
		if site.Go {
			if l, ok := unparen(site.Call.Fun).(*ast.FuncLit); ok && r.prog.byLit[l] == lit {
				return "go statement"
			}
		}
		for j, arg := range site.Call.Args {
			l, ok := unparen(arg).(*ast.FuncLit)
			if !ok || r.prog.byLit[l] != lit {
				continue
			}
			for _, t := range site.Targets {
				if r.runsInGo[paramKey{t, j}] {
					return "passed to " + t.Name
				}
			}
		}
	}
	return "goroutine"
}

// freshExpr reports whether an expression is split-fresh: a direct
// Split/NewRNG call, or a local variable defined from one.
func (r *capturePass) freshExpr(n *FuncNode, e ast.Expr) bool {
	e = unparen(e)
	if call, ok := e.(*ast.CallExpr); ok {
		return isSplitOrNew(n.Pkg.Info, call)
	}
	if id, ok := e.(*ast.Ident); ok {
		obj := n.Pkg.Info.ObjectOf(id)
		return obj != nil && r.freshLocal(n, obj)
	}
	return false
}

// freshLocal reports whether every assignment that defines obj in n's
// body is a Split/NewRNG result.
func (r *capturePass) freshLocal(n *FuncNode, obj types.Object) bool {
	body := n.Body()
	info := n.Pkg.Info
	assigned, fresh := false, true
	ast.Inspect(body, func(node ast.Node) bool {
		as, ok := node.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || info.ObjectOf(id) != obj {
				continue
			}
			assigned = true
			call, ok := unparen(as.Rhs[i]).(*ast.CallExpr)
			if !ok || !isSplitOrNew(info, call) {
				fresh = false
			}
		}
		return true
	})
	return assigned && fresh
}

// isSplitOrNew matches r.Split(...) method calls and stats.NewRNG(...).
func isSplitOrNew(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if _, isMethod := info.Selections[sel]; isMethod {
		return sel.Sel.Name == "Split"
	}
	if fn, ok := info.Uses[sel.Sel].(*types.Func); ok {
		return fn.Name() == "NewRNG" && fn.Pkg() != nil &&
			pathEndsWith(fn.Pkg().Path(), "internal/stats")
	}
	return false
}

// capturable reports whether obj is a variable a crossing closure must
// not capture: channel.Model-like or net.Conn-like.
func (r *capturePass) capturable(pkg *Package, obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() {
		return false
	}
	if modelLike(v.Type()) {
		return true
	}
	netConn, ok := r.netConns[pkg.Types]
	if !ok {
		netConn = lookupNetConn(pkg.Types)
		r.netConns[pkg.Types] = netConn
	}
	return connLike(v.Type(), netConn)
}

// containsLock reports whether a value of type t embeds a sync or
// sync/atomic value; a holder that bundles its model or conn with one
// is taken to serialize access.
func containsLock(t types.Type) bool {
	return containsLockRec(t, map[types.Type]bool{})
}

func containsLockRec(t types.Type, seen map[types.Type]bool) bool {
	if t == nil || seen[t] {
		return false
	}
	seen[t] = true
	if n, ok := t.(*types.Named); ok {
		if obj := n.Obj(); obj != nil && obj.Pkg() != nil {
			switch obj.Pkg().Path() {
			case "sync", "sync/atomic":
				return true
			}
		}
		return containsLockRec(n.Underlying(), seen)
	}
	switch u := t.(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if containsLockRec(u.Field(i).Type(), seen) {
				return true
			}
		}
	case *types.Array:
		return containsLockRec(u.Elem(), seen)
	}
	return false
}

// modelLike reports whether t is a channel.Model, or a struct holding
// one WITHOUT any lock of its own (mac.Link is the canonical case).
func modelLike(t types.Type) bool {
	return t != nil && (isChannelModel(t) || lockFreeHolder(t, isChannelModel))
}

// connLike reports whether t is a network connection, or a session
// struct holding one WITHOUT any lock of its own.
func connLike(t types.Type, netConn *types.Interface) bool {
	isConn := func(t types.Type) bool { return isNetConn(t, netConn) }
	return t != nil && (isConn(t) || lockFreeHolder(t, isConn))
}

// lockFreeHolder reports whether t (or *t) is a struct with a field
// matching is and no sync state of its own.
func lockFreeHolder(t types.Type, is func(types.Type) bool) bool {
	base := t
	if p, ok := t.Underlying().(*types.Pointer); ok {
		base = p.Elem()
	}
	st, ok := base.Underlying().(*types.Struct)
	if !ok || containsLock(base) {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if is(st.Field(i).Type()) {
			return true
		}
	}
	return false
}

// isChannelModel reports whether t is (a pointer to) the channel
// package's Model type. Matched by package-path suffix so fixture
// packages resolve the same named type.
func isChannelModel(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Name() == "Model" && pathEndsWith(n.Obj().Pkg().Path(), "internal/channel")
}

// lookupNetConn finds the net.Conn interface via the package's
// (direct) imports, or nil if net is not imported.
func lookupNetConn(pkg *types.Package) *types.Interface {
	if pkg == nil {
		return nil
	}
	for _, imp := range pkg.Imports() {
		if imp.Path() != "net" {
			continue
		}
		obj := imp.Scope().Lookup("Conn")
		if obj == nil {
			return nil
		}
		iface, _ := obj.Type().Underlying().(*types.Interface)
		return iface
	}
	return nil
}

// isNetConn reports whether t is (or implements) net.Conn.
func isNetConn(t types.Type, netConn *types.Interface) bool {
	if n, ok := t.(*types.Named); ok {
		if obj := n.Obj(); obj.Pkg() != nil && obj.Pkg().Path() == "net" && obj.Name() == "Conn" {
			return true
		}
	}
	if netConn == nil {
		return false
	}
	if types.Implements(t, netConn) {
		return true
	}
	if _, isIface := t.Underlying().(*types.Interface); !isIface {
		return types.Implements(types.NewPointer(t), netConn)
	}
	return false
}
