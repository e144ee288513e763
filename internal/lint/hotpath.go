package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// hotpath-alloc: functions annotated //mobilint:hotpath must not reach
// an allocating construct through any static call path. The check
// mirrors the dynamic testing.AllocsPerRun pins in alloc_test.go: the
// annotated roots are exactly the pinned entry points, so the static
// and dynamic gates enforce the same contract.
//
// What counts as allocating (flagged with the offending call chain):
//   - make/new, slice and map composite literals, &T{...}
//   - append that may grow an arbitrary local slice
//   - boxing a non-pointer value into an interface
//   - string concatenation and string<->[]byte/[]rune conversions
//   - calls into formatting/IO stdlib (fmt, errors, strings, ...)
//   - calls into stdlib we cannot prove allocation-free
//   - unresolvable dynamic calls, method-value closures, go statements
//
// What is exempt (the buffer-reuse idioms the hot path is built on):
//   - branches guarded by x == nil / x != nil / len- or cap-compares:
//     one-time lazy sizing of caller-owned buffers
//   - statements annotated //mobilint:coldstart <reason>
//   - panic(...) arguments: the abort path may format
//   - append to x[:0], to a slice defined from y[:0], or to a struct
//     field (the amortized reuse contract: the backing array reaches
//     steady-state capacity during warm-up)
//   - plain value composite literals (stack data)
//   - an allowlist of proven-free stdlib (math*, sync/atomic, sort on
//     builtin slices, mutex lock/unlock)

var hotpathCheck = &Check{
	Name: "hotpath-alloc",
	Doc:  "//mobilint:hotpath functions must not reach an allocating construct on any static call path",
	RunModule: func(mctx *ModuleContext) {
		newHotpathPass(mctx).run()
	},
}

// hotAllowPkgs are stdlib packages whose exported functions are
// allocation-free in steady state.
var hotAllowPkgs = map[string]bool{
	"math":        true,
	"math/bits":   true,
	"math/cmplx":  true,
	"sync/atomic": true,
}

// hotAllowFuncs are individually proven allocation-free stdlib calls.
var hotAllowFuncs = map[string]bool{
	// sort on builtin element types delegates to slices.Sort: no
	// interface boxing, no allocation.
	"sort.Float64s":           true,
	"sort.Ints":               true,
	"sort.Strings":            true,
	"sort.Search":             true,
	"sort.SearchFloat64s":     true,
	"sort.SearchInts":         true,
	"sort.SearchStrings":      true,
	"(*sync.Mutex).Lock":      true,
	"(*sync.Mutex).Unlock":    true,
	"(*sync.RWMutex).Lock":    true,
	"(*sync.RWMutex).Unlock":  true,
	"(*sync.RWMutex).RLock":   true,
	"(*sync.RWMutex).RUnlock": true,
}

// hotBanPkgs are stdlib packages that allocate or format by design.
var hotBanPkgs = map[string]bool{
	"fmt": true, "errors": true, "strings": true, "strconv": true,
	"bytes": true, "log": true, "os": true, "io": true, "bufio": true,
	"reflect": true, "regexp": true, "time": true,
	"encoding/json": true, "encoding/csv": true, "encoding/binary": true,
}

// span is a half-open source extent used for cold regions.
type span struct{ lo, hi token.Pos }

func (s span) contains(p token.Pos) bool { return p >= s.lo && p < s.hi }

type hotpathPass struct {
	mctx *ModuleContext
	prog *Program
	// asmHot holds module-internal body-less declarations (assembly
	// stubs) annotated //mobilint:hotpath. The call graph has no node
	// for them — there is no Go body to scan — so calls resolve as
	// Extern sites. The annotation is the author's assertion that the
	// assembly is allocation-free, and the annotation contract forces
	// a dynamic AllocsPerRun pin for every annotated function, so the
	// assertion is verified at test time rather than statically.
	asmHot map[*types.Func]bool
	// cold caches per-node cold spans.
	cold map[*FuncNode][]span
	// sites caches per-node call-site lookup by expression.
	sites map[*FuncNode]map[*ast.CallExpr]*CallSite
	// chain records the first discovered warm path to a node.
	chain map[*FuncNode]string
	// scanned marks nodes whose constructs were already reported.
	scanned map[*FuncNode]bool
}

func newHotpathPass(mctx *ModuleContext) *hotpathPass {
	h := &hotpathPass{
		mctx:    mctx,
		prog:    mctx.Prog,
		asmHot:  map[*types.Func]bool{},
		cold:    map[*FuncNode][]span{},
		sites:   map[*FuncNode]map[*ast.CallExpr]*CallSite{},
		chain:   map[*FuncNode]string{},
		scanned: map[*FuncNode]bool{},
	}
	for _, pkg := range h.prog.Pkgs {
		hot := pkg.annotations().hotpath
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body != nil || !hot[fd] {
					continue
				}
				if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					h.asmHot[obj] = true
				}
			}
		}
	}
	return h
}

func (h *hotpathPass) run() {
	var roots []*FuncNode
	for _, n := range h.prog.Nodes {
		if n.Decl != nil && n.Pkg.annotations().hotpath[n.Decl] {
			roots = append(roots, n)
		}
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].Name < roots[j].Name })

	// BFS over warm edges; the first visit fixes the reported chain.
	var queue []*FuncNode
	for _, r := range roots {
		if _, ok := h.chain[r]; ok {
			continue
		}
		h.chain[r] = r.Name
		queue = append(queue, r)
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		h.scan(n)
		for _, callee := range h.warmCallees(n) {
			if _, ok := h.chain[callee]; ok {
				continue
			}
			h.chain[callee] = h.chain[n] + " -> " + callee.Name
			queue = append(queue, callee)
		}
	}
}

// coldSpans computes the node's exempt regions: guarded branches,
// panic arguments, and coldstart-annotated statements.
func (h *hotpathPass) coldSpans(n *FuncNode) []span {
	if s, ok := h.cold[n]; ok {
		return s
	}
	var spans []span
	add := func(node ast.Node) {
		if node != nil {
			spans = append(spans, span{node.Pos(), node.End()})
		}
	}
	info := n.Pkg.Info
	ann := n.Pkg.annotations()
	inspectOwn(n.Body(), func(node ast.Node) {
		switch s := node.(type) {
		case *ast.IfStmt:
			eqNil, neqNil, lenCap := classifyGuard(info, s.Cond)
			if eqNil || lenCap {
				add(s.Body)
			}
			if neqNil {
				add(s.Else)
			}
		case *ast.CallExpr:
			if id, ok := unparen(s.Fun).(*ast.Ident); ok {
				if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "panic" {
					add(s)
				}
			}
		case ast.Stmt:
			if ann.coldLine(h.prog.Fset, s.Pos()) {
				add(s)
			}
		}
	})
	h.cold[n] = spans
	return spans
}

// classifyGuard scans a condition's &&/||/!/() leaves for the
// buffer-sizing guard shapes.
func classifyGuard(info *types.Info, cond ast.Expr) (eqNil, neqNil, lenCap bool) {
	var walk func(e ast.Expr)
	walk = func(e ast.Expr) {
		switch e := e.(type) {
		case *ast.ParenExpr:
			walk(e.X)
		case *ast.UnaryExpr:
			if e.Op == token.NOT {
				walk(e.X)
			}
		case *ast.BinaryExpr:
			switch e.Op {
			case token.LAND, token.LOR:
				walk(e.X)
				walk(e.Y)
			case token.EQL, token.NEQ:
				if isNilExpr(e.X) || isNilExpr(e.Y) {
					if e.Op == token.EQL {
						eqNil = true
					} else {
						neqNil = true
					}
				}
				if isLenCapCall(info, e.X) || isLenCapCall(info, e.Y) {
					lenCap = true
				}
			case token.LSS, token.LEQ, token.GTR, token.GEQ:
				if isLenCapCall(info, e.X) || isLenCapCall(info, e.Y) {
					lenCap = true
				}
			}
		}
	}
	walk(cond)
	return eqNil, neqNil, lenCap
}

func isNilExpr(e ast.Expr) bool {
	id, ok := unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

func isLenCapCall(info *types.Info, e ast.Expr) bool {
	call, ok := unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && (b.Name() == "len" || b.Name() == "cap")
}

func inCold(spans []span, pos token.Pos) bool {
	for _, s := range spans {
		if s.contains(pos) {
			return true
		}
	}
	return false
}

// siteMap indexes a node's call sites by expression.
func (h *hotpathPass) siteMap(n *FuncNode) map[*ast.CallExpr]*CallSite {
	if m, ok := h.sites[n]; ok {
		return m
	}
	m := make(map[*ast.CallExpr]*CallSite, len(n.Calls))
	for _, s := range n.Calls {
		m[s.Call] = s
	}
	h.sites[n] = m
	return m
}

// warmCallees returns the nodes reachable from n through warm call
// sites and warm literal creations.
func (h *hotpathPass) warmCallees(n *FuncNode) []*FuncNode {
	spans := h.coldSpans(n)
	var out []*FuncNode
	for _, site := range n.Calls {
		if site.Defer || inCold(spans, site.Call.Pos()) {
			continue
		}
		out = append(out, site.Targets...)
	}
	for _, lit := range n.Lits {
		if !inCold(spans, lit.Lit.Pos()) {
			out = append(out, lit)
		}
	}
	return out
}

// report emits one hotpath finding with its discovery chain.
func (h *hotpathPass) report(n *FuncNode, pos token.Pos, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	h.mctx.Reportf(pos, "%s; hot call chain: %s", msg, h.chain[n])
}

// scan reports the allocating constructs in n's warm regions.
func (h *hotpathPass) scan(n *FuncNode) {
	if h.scanned[n] {
		return
	}
	h.scanned[n] = true
	spans := h.coldSpans(n)
	info := n.Pkg.Info
	sites := h.siteMap(n)

	// Identify expressions consumed as call functions, so method
	// values used for dispatch are not double-reported.
	funExprs := map[ast.Expr]bool{}
	inspectOwn(n.Body(), func(node ast.Node) {
		if call, ok := node.(*ast.CallExpr); ok {
			funExprs[unparen(call.Fun)] = true
		}
	})

	inspectOwn(n.Body(), func(node ast.Node) {
		if node == nil || inCold(spans, node.Pos()) {
			return
		}
		switch e := node.(type) {
		case *ast.GoStmt:
			h.report(n, e.Pos(), "spawns a goroutine")
		case *ast.CompositeLit:
			t := info.TypeOf(e)
			if t == nil {
				return
			}
			switch t.Underlying().(type) {
			case *types.Slice:
				h.report(n, e.Pos(), "slice literal %s allocates", exprString(e.Type))
			case *types.Map:
				h.report(n, e.Pos(), "map literal %s allocates", exprString(e.Type))
			}
		case *ast.UnaryExpr:
			if e.Op == token.AND {
				if cl, ok := unparen(e.X).(*ast.CompositeLit); ok {
					h.report(n, e.Pos(), "&%s{...} escapes to the heap", exprString(cl.Type))
				}
			}
		case *ast.BinaryExpr:
			if e.Op == token.ADD {
				if t := info.TypeOf(e); t != nil && isStringType(t) {
					if tv, ok := info.Types[e]; !ok || tv.Value == nil {
						h.report(n, e.Pos(), "string concatenation allocates")
					}
				}
			}
		case *ast.SelectorExpr:
			if funExprs[ast.Expr(e)] {
				return
			}
			if sel, ok := info.Selections[e]; ok && sel.Kind() == types.MethodVal {
				h.report(n, e.Pos(), "method value %s allocates a bound-method closure", exprString(e))
			}
		case *ast.AssignStmt:
			h.scanAssignBoxing(n, e)
		case *ast.ReturnStmt:
			h.scanReturnBoxing(n, e)
		case *ast.CallExpr:
			h.scanCall(n, e, sites)
		}
	})
}

// scanCall classifies one warm call expression.
func (h *hotpathPass) scanCall(n *FuncNode, call *ast.CallExpr, sites map[*ast.CallExpr]*CallSite) {
	info := n.Pkg.Info
	fun := unparen(call.Fun)

	// Builtins.
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				h.report(n, call.Pos(), "make(%s) allocates", exprString(call.Args[0]))
			case "new":
				h.report(n, call.Pos(), "new(%s) allocates", exprString(call.Args[0]))
			case "append":
				if !h.appendAllowed(n, call) {
					h.report(n, call.Pos(), "append may grow %s (reuse a field-backed or [:0]-reset buffer instead)", exprString(call.Args[0]))
				}
			}
			return
		}
	}

	// Conversions: T(x).
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		h.scanConversion(n, call, tv.Type)
		return
	}

	site := sites[call]
	if site == nil {
		return
	}
	switch {
	case site.Dynamic:
		h.report(n, call.Pos(), "dynamic call through a func value — cannot prove allocation-free")
		return
	case site.Extern != nil:
		name := externName(site.Extern)
		pkg := ""
		if site.Extern.Pkg() != nil {
			pkg = site.Extern.Pkg().Path()
		}
		switch {
		case h.asmHot[site.Extern]:
			// Annotated in-module assembly stub: alloc-free by the
			// annotation contract, verified by its AllocsPerRun pin.
		case hotAllowFuncs[name] || hotAllowPkgs[pkg]:
			// proven free
		case hotBanPkgs[pkg]:
			// The call itself is the finding; flagging each boxed
			// argument on top would only restate it.
			h.report(n, call.Pos(), "calls %s, which allocates or formats", name)
			return
		default:
			h.report(n, call.Pos(), "calls %s — cannot prove it allocation-free", name)
			return
		}
	}
	h.scanArgBoxing(n, call)
}

// scanConversion flags string<->bytes conversions and boxing
// conversions to interface types.
func (h *hotpathPass) scanConversion(n *FuncNode, call *ast.CallExpr, dst types.Type) {
	if len(call.Args) != 1 {
		return
	}
	info := n.Pkg.Info
	src := info.TypeOf(call.Args[0])
	if src == nil {
		return
	}
	if isStringType(dst) && isByteOrRuneSlice(src) {
		h.report(n, call.Pos(), "[]byte-to-string conversion copies and allocates")
		return
	}
	if isByteOrRuneSlice(dst) && isStringType(src) {
		h.report(n, call.Pos(), "string-to-slice conversion copies and allocates")
		return
	}
	if types.IsInterface(dst) {
		h.checkBox(n, call.Args[0], dst, "conversion")
	}
}

// appendAllowed applies the amortized-reuse rules to an append call.
func (h *hotpathPass) appendAllowed(n *FuncNode, call *ast.CallExpr) bool {
	if len(call.Args) == 0 {
		return true
	}
	target := unparen(call.Args[0])
	switch t := target.(type) {
	case *ast.SliceExpr:
		// append(x[:0], ...): explicit in-place reset.
		return isZeroLow(t)
	case *ast.SelectorExpr:
		// append(s.field, ...): the field-backed amortized contract —
		// the backing array reaches fleet capacity during warm-up.
		return true
	case *ast.IndexExpr:
		// append(s.rows[i], ...): same contract, per-row buffers.
		return true
	case *ast.Ident:
		obj := n.Pkg.Info.ObjectOf(t)
		if obj == nil {
			return false
		}
		return h.identResetFromSlice(n, obj)
	}
	return false
}

// isZeroLow matches x[:0] / x[0:0].
func isZeroLow(se *ast.SliceExpr) bool {
	if se.High == nil {
		return false
	}
	lit, ok := unparen(se.High).(*ast.BasicLit)
	return ok && lit.Value == "0"
}

// identResetFromSlice reports whether a local slice variable is
// defined from (or re-assigned to) an x[:0] reset anywhere in the
// function — the "kept := d.waiters[:0]" idiom.
func (h *hotpathPass) identResetFromSlice(n *FuncNode, obj types.Object) bool {
	found := false
	info := n.Pkg.Info
	inspectOwn(n.Body(), func(node ast.Node) {
		if found {
			return
		}
		as, ok := node.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || info.ObjectOf(id) != obj {
				continue
			}
			if se, ok := unparen(as.Rhs[i]).(*ast.SliceExpr); ok && isZeroLow(se) {
				found = true
			}
		}
	})
	return found
}

// scanArgBoxing flags non-pointer values passed into interface
// parameters.
func (h *hotpathPass) scanArgBoxing(n *FuncNode, call *ast.CallExpr) {
	info := n.Pkg.Info
	sig, ok := info.TypeOf(call.Fun).(*types.Signature)
	if !ok || sig == nil {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // forwarding a slice, no per-element boxing
			}
			st, ok := params.At(params.Len() - 1).Type().(*types.Slice)
			if !ok {
				continue
			}
			pt = st.Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if pt != nil && types.IsInterface(pt) {
			h.checkBox(n, arg, pt, "argument")
		}
	}
}

// scanAssignBoxing flags non-pointer values assigned into interface
// variables or fields.
func (h *hotpathPass) scanAssignBoxing(n *FuncNode, as *ast.AssignStmt) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	info := n.Pkg.Info
	for i, lhs := range as.Lhs {
		lt := info.TypeOf(lhs)
		if lt == nil || !types.IsInterface(lt) {
			continue
		}
		h.checkBox(n, as.Rhs[i], lt, "assignment")
	}
}

// scanReturnBoxing flags non-pointer values returned as interfaces.
func (h *hotpathPass) scanReturnBoxing(n *FuncNode, ret *ast.ReturnStmt) {
	var results *types.Tuple
	if n.Decl != nil {
		if n.Obj == nil {
			return
		}
		sig, ok := n.Obj.Type().(*types.Signature)
		if !ok {
			return
		}
		results = sig.Results()
	} else {
		sig, ok := n.Pkg.Info.TypeOf(n.Lit).(*types.Signature)
		if !ok {
			return
		}
		results = sig.Results()
	}
	if results == nil || len(ret.Results) != results.Len() {
		return
	}
	for i, e := range ret.Results {
		rt := results.At(i).Type()
		if types.IsInterface(rt) {
			h.checkBox(n, e, rt, "return")
		}
	}
}

// checkBox reports e if storing it into an interface would allocate:
// concrete non-pointer-shaped, non-constant, non-nil values.
func (h *hotpathPass) checkBox(n *FuncNode, e ast.Expr, dst types.Type, what string) {
	info := n.Pkg.Info
	if isNilExpr(e) {
		return
	}
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return
	}
	if tv.Value != nil {
		return // constants are backed by static data
	}
	src := tv.Type
	if types.IsInterface(src) || isPointerShaped(src) {
		return
	}
	h.report(n, e.Pos(), "%s boxes %s into %s (allocates)", what, src.String(), dst.String())
}

// isPointerShaped reports whether an interface holding this type
// stores it directly in the data word (no allocation).
func isPointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
		b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// exprString renders a short expression for messages.
func exprString(e ast.Expr) string {
	if e == nil {
		return "?"
	}
	var b strings.Builder
	writeExpr(&b, e, 0)
	s := b.String()
	if len(s) > 40 {
		s = s[:37] + "..."
	}
	return s
}

func writeExpr(b *strings.Builder, e ast.Expr, depth int) {
	if depth > 6 {
		b.WriteString("...")
		return
	}
	switch e := e.(type) {
	case *ast.Ident:
		b.WriteString(e.Name)
	case *ast.SelectorExpr:
		writeExpr(b, e.X, depth+1)
		b.WriteByte('.')
		b.WriteString(e.Sel.Name)
	case *ast.StarExpr:
		b.WriteByte('*')
		writeExpr(b, e.X, depth+1)
	case *ast.ArrayType:
		b.WriteString("[]")
		writeExpr(b, e.Elt, depth+1)
	case *ast.MapType:
		b.WriteString("map[")
		writeExpr(b, e.Key, depth+1)
		b.WriteByte(']')
		writeExpr(b, e.Value, depth+1)
	case *ast.IndexExpr:
		writeExpr(b, e.X, depth+1)
		b.WriteString("[...]")
	case *ast.CallExpr:
		writeExpr(b, e.Fun, depth+1)
		b.WriteString("(...)")
	case *ast.SliceExpr:
		writeExpr(b, e.X, depth+1)
		b.WriteString("[...]")
	case *ast.BasicLit:
		b.WriteString(e.Value)
	default:
		b.WriteString("expr")
	}
}
