package lint

import (
	"go/ast"
	"go/types"
)

// stdout-purity: the byte-identical-stdout contract (DESIGN.md) says
// stdout carries exactly the experiment's rendered result — identical
// at any -jobs — while telemetry, timing and diagnostics go to stderr
// or files. This check makes that structural: only functions annotated
//
//	//mobilint:stdout <reason>
//
// may reference os.Stdout, call fmt.Print/Printf/Println, or use the
// print/println builtins. Function literals inherit their enclosing
// declaration's annotation (a printer's callbacks are part of the
// printer).

var stdoutPurityCheck = &Check{
	Name: "stdout-purity",
	Doc:  "only //mobilint:stdout-annotated writers may touch os.Stdout or fmt.Print*; diagnostics go to stderr",
	Run: func(ctx *Context) {
		ann := ctx.Pkg.annotations()
		for _, file := range ctx.Pkg.Files {
			for _, decl := range file.Decls {
				fd, isFunc := decl.(*ast.FuncDecl)
				if isFunc {
					if _, approved := ann.stdout[fd]; approved {
						continue // approved writer, literals included
					}
				}
				checkStdoutTouches(ctx, decl)
			}
		}
	},
}

// checkStdoutTouches reports every stdout touch under n.
func checkStdoutTouches(ctx *Context, n ast.Node) {
	info := ctx.Pkg.Info
	ast.Inspect(n, func(node ast.Node) bool {
		switch e := node.(type) {
		case *ast.CallExpr:
			if pkgPath, name, ok := ctx.PkgFunc(e.Fun); ok && pkgPath == "fmt" &&
				(name == "Print" || name == "Printf" || name == "Println") {
				ctx.Reportf(e.Pos(), "fmt.%s writes to stdout outside an approved writer; print to os.Stderr, or annotate the writer with //mobilint:stdout <reason>", name)
				return false // don't double-report the os.Stdout-free selector
			}
			if id, ok := unparen(e.Fun).(*ast.Ident); ok {
				if b, ok := info.Uses[id].(*types.Builtin); ok &&
					(b.Name() == "print" || b.Name() == "println") {
					ctx.Reportf(e.Pos(), "builtin %s bypasses the stdout contract (and writes to stderr non-atomically); use fmt.Fprintln(os.Stderr, ...)", b.Name())
				}
			}
		case *ast.SelectorExpr:
			if obj, ok := info.Uses[e.Sel].(*types.Var); ok &&
				obj.Name() == "Stdout" && obj.Pkg() != nil && obj.Pkg().Path() == "os" {
				ctx.Reportf(e.Pos(), "os.Stdout referenced outside an approved writer; route output through an io.Writer parameter or annotate with //mobilint:stdout <reason>")
			}
		}
		return true
	})
}
