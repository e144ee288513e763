package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"
)

// Error-hygiene checks: dropped error results hide transport and
// encoding failures (the exact failures the controller protocol must
// surface), and fmt.Errorf without %w severs errors.Is/As chains.

var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// isErrorType reports whether t implements the error interface.
func isErrorType(t types.Type) bool {
	return t != nil && types.Implements(t, errorIface)
}

var discardedErrorCheck = &Check{
	Name: "discarded-error",
	Doc:  "a call whose error result is silently dropped hides failures; handle it or assign to _ explicitly",
	Run: func(ctx *Context) {
		for _, file := range ctx.Pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				stmt, ok := n.(*ast.ExprStmt)
				if !ok {
					return true
				}
				call, ok := stmt.X.(*ast.CallExpr)
				if !ok {
					return true
				}
				if !callReturnsError(ctx, call) || errorDiscardAllowed(ctx, call) {
					return true
				}
				ctx.Reportf(call.Pos(), "error result of %s is silently discarded; handle it, or write `_ = ...` to discard deliberately", callName(call))
				return true
			})
		}
	},
}

// callReturnsError reports whether the call's last result is an error.
func callReturnsError(ctx *Context, call *ast.CallExpr) bool {
	t := ctx.TypeOf(call)
	if tuple, ok := t.(*types.Tuple); ok {
		if tuple.Len() == 0 {
			return false
		}
		t = tuple.At(tuple.Len() - 1).Type()
	}
	return isErrorType(t)
}

// errorDiscardAllowed excludes the conventional never-fails cases:
// fmt printing to stdout/stderr or an in-memory buffer, and the
// strings.Builder / bytes.Buffer methods whose errors are documented
// to always be nil.
func errorDiscardAllowed(ctx *Context, call *ast.CallExpr) bool {
	if pkgPath, name, ok := ctx.PkgFunc(call.Fun); ok && pkgPath == "fmt" {
		switch name {
		case "Print", "Printf", "Println":
			return true
		case "Fprint", "Fprintf", "Fprintln":
			if len(call.Args) == 0 {
				return false
			}
			if inMemoryWriter(ctx.TypeOf(call.Args[0])) {
				return true
			}
			if p, n, ok := ctx.PkgFunc(call.Args[0]); ok && p == "os" && (n == "Stdout" || n == "Stderr") {
				return true
			}
		}
		return false
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if s, ok := ctx.Pkg.Info.Selections[sel]; ok && inMemoryWriter(s.Recv()) {
			return true
		}
	}
	return false
}

// inMemoryWriter reports whether t is a strings.Builder or
// bytes.Buffer (possibly behind a pointer) — writers that cannot fail.
func inMemoryWriter(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj() == nil || n.Obj().Pkg() == nil {
		return false
	}
	switch n.Obj().Pkg().Path() + "." + n.Obj().Name() {
	case "strings.Builder", "bytes.Buffer":
		return true
	}
	return false
}

// callName renders the callee for a finding message.
func callName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			return id.Name + "." + fun.Sel.Name
		}
		return "(...)." + fun.Sel.Name
	default:
		return "call"
	}
}

var errorfWrapCheck = &Check{
	Name: "errorf-wrap",
	Doc:  "fmt.Errorf with an error operand must use %w so errors.Is/As can unwrap the chain",
	Run: func(ctx *Context) {
		for _, file := range ctx.Pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if pkgPath, name, ok := ctx.PkgFunc(call.Fun); !ok || pkgPath != "fmt" || name != "Errorf" {
					return true
				}
				if len(call.Args) < 2 {
					return true
				}
				tv, ok := ctx.Pkg.Info.Types[call.Args[0]]
				if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
					return true
				}
				if strings.Contains(constant.StringVal(tv.Value), "%w") {
					return true
				}
				for _, arg := range call.Args[1:] {
					if isErrorType(ctx.TypeOf(arg)) {
						ctx.Reportf(arg.Pos(), "fmt.Errorf formats an error operand without %%w, severing the errors.Is/As chain; use %%w (or errors.Join)")
						break
					}
				}
				return true
			})
		}
	},
}
