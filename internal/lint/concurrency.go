package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Concurrency-discipline checks: goroutines in the controller-protocol
// and worker-pool packages must not capture shared connections without
// synchronization, and no goroutine may capture a channel.Model. Copied
// sync primitives are go vet's copylocks analyzer's job.

// syncLockTypes / atomicLockTypes are the sync and sync/atomic types
// whose value semantics break when copied.
var syncLockTypes = map[string]bool{
	"Mutex": true, "RWMutex": true, "WaitGroup": true, "Once": true,
	"Cond": true, "Pool": true, "Map": true,
}

var atomicLockTypes = map[string]bool{
	"Bool": true, "Int32": true, "Int64": true, "Uint32": true,
	"Uint64": true, "Uintptr": true, "Pointer": true, "Value": true,
}

// containsLock reports whether a value of type t embeds sync state
// that must not be copied.
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
			case "sync":
				if syncLockTypes[obj.Name()] {
					return true
				}
			case "sync/atomic":
				if atomicLockTypes[obj.Name()] {
					return true
				}
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

// typeName renders t relative to the package being linted.
func typeName(ctx *Context, t types.Type) string {
	return types.TypeString(t, types.RelativeTo(ctx.Pkg.Types))
}

var goCaptureCheck = &Check{
	Name: "go-capture",
	Doc:  "goroutines in protocol/worker packages must not capture a shared conn/session; pass it as an argument or guard it with a mutex",
	Run: func(ctx *Context) {
		if !ctx.InConcurrency() {
			return
		}
		netConn := lookupNetConn(ctx.Pkg.Types)
		for _, file := range ctx.Pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				g, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				lit, ok := g.Call.Fun.(*ast.FuncLit)
				if !ok {
					return true
				}
				reported := map[*types.Var]bool{}
				ast.Inspect(lit.Body, func(m ast.Node) bool {
					id, ok := m.(*ast.Ident)
					if !ok {
						return true
					}
					obj, ok := ctx.Pkg.Info.Uses[id].(*types.Var)
					if !ok || obj.IsField() || reported[obj] {
						return true
					}
					if obj.Pos() >= lit.Pos() && obj.Pos() <= lit.End() {
						return true // declared inside the literal
					}
					if connLike(obj.Type(), netConn) {
						reported[obj] = true
						ctx.Reportf(id.Pos(), "goroutine captures shared %s %q without synchronization; pass it as a call argument or guard it behind a mutex-bearing session", typeName(ctx, obj.Type()), obj.Name())
					}
					return true
				})
				return true
			})
		}
	},
}

var modelCaptureCheck = &Check{
	Name: "model-capture",
	Doc:  "goroutines must not capture a channel.Model or a lock-free struct holding one; the model's response cache is single-owner state, so pass it as an argument or build it inside the goroutine",
	Run: func(ctx *Context) {
		for _, file := range ctx.Pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				g, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				lit, ok := g.Call.Fun.(*ast.FuncLit)
				if !ok {
					return true
				}
				reported := map[*types.Var]bool{}
				ast.Inspect(lit.Body, func(m ast.Node) bool {
					id, ok := m.(*ast.Ident)
					if !ok {
						return true
					}
					obj, ok := ctx.Pkg.Info.Uses[id].(*types.Var)
					if !ok || obj.IsField() || reported[obj] {
						return true
					}
					if obj.Pos() >= lit.Pos() && obj.Pos() <= lit.End() {
						return true // declared inside the literal
					}
					if modelLike(obj.Type()) {
						reported[obj] = true
						ctx.Reportf(id.Pos(), "goroutine captures %s %q, whose channel.Model response cache belongs to the spawning goroutine; pass the model as a call argument or construct it inside the goroutine", typeName(ctx, obj.Type()), obj.Name())
					}
					return true
				})
				return true
			})
		}
	},
}

// modelLike reports whether t is a channel.Model, or a struct holding
// one WITHOUT any lock of its own (mac.Link is the canonical case). A
// holder that bundles its model with a sync primitive is taken to
// serialize access and is allowed.
func modelLike(t types.Type) bool {
	if t == nil {
		return false
	}
	if isChannelModel(t) {
		return true
	}
	base := t
	if p, ok := t.Underlying().(*types.Pointer); ok {
		base = p.Elem()
	}
	st, ok := base.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	if containsLock(base) {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if isChannelModel(st.Field(i).Type()) {
			return true
		}
	}
	return false
}

// isChannelModel reports whether t is (a pointer to) the channel
// package's Model type. Matched by package-path suffix so fixture
// packages under testdata resolve the same named type.
func isChannelModel(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	return obj.Name() == "Model" && strings.HasSuffix(obj.Pkg().Path(), "internal/channel")
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

// connLike reports whether t is a network connection, or a session
// struct holding one WITHOUT any lock of its own. A session type that
// bundles its conn with a sync primitive is taken to be internally
// synchronized and is allowed.
func connLike(t types.Type, netConn *types.Interface) bool {
	if t == nil {
		return false
	}
	if isNetConn(t, netConn) {
		return true
	}
	base := t
	if p, ok := t.Underlying().(*types.Pointer); ok {
		base = p.Elem()
	}
	st, ok := base.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	if containsLock(base) {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if isNetConn(st.Field(i).Type(), netConn) {
			return true
		}
	}
	return false
}

// isNetConn reports whether t is (or implements) net.Conn.
func isNetConn(t types.Type, netConn *types.Interface) bool {
	if n, ok := t.(*types.Named); ok {
		if obj := n.Obj(); obj != nil && obj.Pkg() != nil &&
			obj.Pkg().Path() == "net" && obj.Name() == "Conn" {
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
		if types.Implements(types.NewPointer(t), netConn) {
			return true
		}
	}
	return false
}
