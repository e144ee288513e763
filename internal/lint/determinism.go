package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
)

// Determinism checks. The repo's jobs=1 vs jobs=8 byte-identical
// guarantee (internal/parallel, EXPERIMENTS determinism test) only
// holds if simulation code derives every variable input from the
// experiment seed: no wall clock, no math/rand, no map iteration order
// leaking into output.

// bannedTimeFuncs are the wall-clock entry points of package time.
var bannedTimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "Tick": true, "NewTimer": true, "NewTicker": true,
}

var timeNowCheck = &Check{
	Name: "time-now",
	Doc:  "simulation code must not read the wall clock; results must be a pure function of the experiment seed",
	Run: func(ctx *Context) {
		if !ctx.InDeterminism() {
			return
		}
		for _, file := range ctx.Pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if pkgPath, name, ok := ctx.PkgFunc(sel); ok &&
					pkgPath == "time" && bannedTimeFuncs[name] {
					ctx.Reportf(sel.Pos(), "time.%s makes simulation output depend on the wall clock; derive time from the simulated clock and the Config seed", name)
				}
				return true
			})
		}
	},
}

var mathRandCheck = &Check{
	Name: "math-rand",
	Doc:  "no package may import math/rand or math/rand/v2; every random stream derives from the seeded stats.RNG",
	Run: func(ctx *Context) {
		for _, file := range ctx.Pkg.Files {
			for _, imp := range file.Imports {
				if path, err := strconv.Unquote(imp.Path.Value); err == nil &&
					(path == "math/rand" || path == "math/rand/v2") {
					ctx.Reportf(imp.Pos(), "import of %s bypasses the stats.RNG seed contract; split the experiment RNG instead (stats.NewRNG(seed).Split(label))", path)
				}
			}
		}
	},
}

var mapOrderCheck = &Check{
	Name: "map-order",
	Doc:  "map iteration that appends to a slice or writes output must sort; Go randomizes map order per run",
	Run: func(ctx *Context) {
		if !ctx.InDeterminism() {
			return
		}
		for _, file := range ctx.Pkg.Files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				checkMapLoops(ctx, fn.Body)
			}
		}
	},
}

// checkMapLoops flags order-sensitive map iterations within one
// function body.
func checkMapLoops(ctx *Context, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := ctx.TypeOf(rs.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		op := orderSensitiveOp(ctx, rs)
		if op == "" {
			return true
		}
		if sortAfter(ctx, body, rs.End()) {
			return true
		}
		ctx.Reportf(rs.For, "map iteration %s in Go's randomized order; iterate sorted keys or sort the result before it is consumed", op)
		return true
	})
}

// orderSensitiveOp describes the first operation inside the loop body
// whose result depends on iteration order, or "" if none.
func orderSensitiveOp(ctx *Context, rs *ast.RangeStmt) string {
	op := ""
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if op != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, rhs := range n.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || !isBuiltinAppend(ctx, call) {
					continue
				}
				lhs, ok := n.Lhs[i].(*ast.Ident)
				if !ok {
					continue
				}
				obj := ctx.Pkg.Info.ObjectOf(lhs)
				if obj != nil && !(obj.Pos() >= rs.Pos() && obj.Pos() <= rs.End()) {
					op = "appends to " + lhs.Name
					return false
				}
			}
		case *ast.CallExpr:
			if pkgPath, name, ok := ctx.PkgFunc(n.Fun); ok && pkgPath == "fmt" &&
				(name == "Fprint" || name == "Fprintf" || name == "Fprintln" ||
					name == "Print" || name == "Printf" || name == "Println") {
				op = "writes output (fmt." + name + ")"
				return false
			}
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				switch sel.Sel.Name {
				case "Write", "WriteString", "WriteByte", "WriteRune":
					// A writer method: emitted bytes follow map order.
					if _, isSel := ctx.Pkg.Info.Selections[sel]; isSel {
						op = "writes output (." + sel.Sel.Name + ")"
						return false
					}
				}
			}
		}
		return true
	})
	return op
}

// isBuiltinAppend reports whether call invokes the append builtin.
func isBuiltinAppend(ctx *Context, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	_, isBuiltin := ctx.Pkg.Info.Uses[id].(*types.Builtin)
	return isBuiltin
}

// sortAfter reports whether a sort.* or slices.Sort* call appears
// after pos within the enclosing function body — the idiom
// "collect from map, then sort" is deterministic.
func sortAfter(ctx *Context, body *ast.BlockStmt, pos token.Pos) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() <= pos {
			return true
		}
		if pkgPath, name, ok := ctx.PkgFunc(call.Fun); ok {
			if pkgPath == "sort" ||
				(pkgPath == "slices" && (name == "Sort" || name == "SortFunc" || name == "SortStableFunc")) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
