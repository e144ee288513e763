// Package lint implements mobilint, the repo-specific static-analysis
// gate behind cmd/mobilint. It machine-checks the contracts the
// simulation results rest on:
//
//   - determinism: simulation packages (under <module>/internal/) must
//     not consult the wall clock or let Go's randomized map iteration
//     order leak into series or rendered output, and no package may
//     import math/rand, so every stream derives from the seeded
//     stats.RNG (checks time-now, map-order, math-rand);
//   - error hygiene: error results must not be silently dropped, and
//     wrapped errors must use %w so errors.Is/As keep working (checks
//     discarded-error, errorf-wrap);
//   - documentation: every package must carry a package doc comment so
//     the godoc index stays complete (check pkg-doc);
//   - interprocedural contracts, verified over a static call graph of
//     the whole module: //mobilint:hotpath-annotated functions must
//     not reach an allocating construct on any warm call path, with
//     the offending chain printed (check hotpath-alloc); and a closure
//     that reaches a goroutine, by a go statement or through a
//     func-typed parameter such as parallel.RunTrials' trial function,
//     may use an outer *stats.RNG only to Split it and must not capture
//     a channel.Model-like or net.Conn-like variable (check
//     goroutine-capture). The graph resolves direct and concrete-method
//     calls statically, interface calls conservatively to every
//     in-module implementation, and func-value calls to locally
//     assigned literals;
//   - stdout: only //mobilint:stdout-annotated writers may touch
//     os.Stdout or fmt.Print* (check stdout-purity).
//
// Copied or by-value sync primitives are left to go vet's copylocks
// analyzer. A malformed //mobilint: annotation is itself a finding
// (bad-annotation). There is no suppression directive: a finding is
// fixed in the code.
//
// The analysis is stdlib-only (go/parser, go/ast, go/types, go/token):
// in-module imports are type-checked from source under the module
// root, standard-library imports from GOROOT sources.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// Finding is one rule violation at a source position.
type Finding struct {
	// Pos locates the finding; Filename is module-root-relative when
	// possible.
	Pos token.Position
	// Check names the rule that fired.
	Check string
	// Message is the one-line explanation.
	Message string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Check, f.Message)
}

// Check is one named rule. Exactly one of Run (a per-package AST
// check) and RunModule (an interprocedural check over the whole
// call-graph universe) is set.
type Check struct {
	// Name identifies the check in output and in -checks.
	Name string
	// Doc is the one-line rationale shown by mobilint -list.
	Doc string
	// Run reports the check's findings for ctx.Pkg.
	Run func(ctx *Context)
	// RunModule reports findings over the module-wide Program; it runs
	// once per invocation, after every selected package has loaded.
	RunModule func(mctx *ModuleContext)
}

// Checks lists every registered rule, in report order.
var Checks = []*Check{
	timeNowCheck,
	mathRandCheck,
	mapOrderCheck,
	discardedErrorCheck,
	errorfWrapCheck,
	pkgDocCheck,
	stdoutPurityCheck,
	hotpathCheck,
	goroutineCaptureCheck,
}

func checkByName(name string) *Check {
	for _, c := range Checks {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// Config selects what to lint.
type Config struct {
	// Dir is any directory inside the module; the module root and path
	// are discovered from it. Empty means ".".
	Dir string
	// Patterns are package patterns relative to Dir: a directory, or a
	// "dir/..." subtree. Empty means "./...".
	Patterns []string
	// Checks enables a subset of checks by name. Empty enables all.
	Checks []string
}

// Context is the per-package state handed to a Check's Run.
type Context struct {
	Pkg *Package

	modPath  string
	check    *Check
	findings *[]Finding
}

// Reportf records a finding for the running check.
func (ctx *Context) Reportf(pos token.Pos, format string, args ...any) {
	*ctx.findings = append(*ctx.findings, Finding{
		Pos:     ctx.Pkg.Fset.Position(pos),
		Check:   ctx.check.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// InDeterminism reports whether the package is under the determinism
// contract: every package below <module>/internal/.
func (ctx *Context) InDeterminism() bool {
	return strings.HasPrefix(ctx.Pkg.ImportPath, ctx.modPath+"/internal/")
}

// TypeOf returns the static type of e, or nil if unknown.
func (ctx *Context) TypeOf(e ast.Expr) types.Type {
	return ctx.Pkg.Info.TypeOf(e)
}

// ModuleContext is the state handed to a module-level check's
// RunModule: the call-graph Program over every loaded module package.
type ModuleContext struct {
	Prog *Program

	check    *Check
	findings *[]Finding
}

// Reportf records a module-level finding for the running check.
func (mctx *ModuleContext) Reportf(pos token.Pos, format string, args ...any) {
	*mctx.findings = append(*mctx.findings, Finding{
		Pos:     mctx.Prog.Fset.Position(pos),
		Check:   mctx.check.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// PkgFunc resolves e as a qualified reference pkg.Name to an imported
// package's exported identifier.
func (ctx *Context) PkgFunc(e ast.Expr) (pkgPath, name string, ok bool) {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return "", "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", "", false
	}
	pn, ok := ctx.Pkg.Info.Uses[id].(*types.PkgName)
	if !ok {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}

// Run lints the packages selected by cfg and returns the findings
// sorted by position. A non-empty result means the gate fails; errors
// are loader/config problems, not findings. A package that does not
// type-check, selected or imported, is an error: the checks would run on
// partial type information.
func Run(cfg Config) ([]Finding, error) {
	if cfg.Dir == "" {
		cfg.Dir = "."
	}
	if len(cfg.Patterns) == 0 {
		cfg.Patterns = []string{"./..."}
	}
	root, modPath, err := findModuleRoot(cfg.Dir)
	if err != nil {
		return nil, err
	}

	enabled := Checks
	if len(cfg.Checks) > 0 {
		enabled = nil
		for _, name := range cfg.Checks {
			c := checkByName(name)
			if c == nil {
				return nil, fmt.Errorf("lint: unknown check %q", name)
			}
			enabled = append(enabled, c)
		}
	}

	base, err := filepath.Abs(cfg.Dir)
	if err != nil {
		return nil, err
	}
	dirs, err := resolveDirs(base, cfg.Patterns)
	if err != nil {
		return nil, err
	}
	ld := newLoader(root, modPath)
	pkgs := make([]*Package, len(dirs))
	for i, dir := range dirs {
		if pkgs[i], err = ld.loadDir(dir); err != nil {
			return nil, err
		}
	}
	for _, pkg := range ld.allPackages() {
		if pkg.TypeErr != nil {
			return nil, fmt.Errorf("lint: %s does not type-check: %w", pkg.ImportPath, pkg.TypeErr)
		}
	}

	var findings []Finding
	selDirs := map[string]bool{}
	for _, pkg := range pkgs {
		selDirs[pkg.Dir] = true
		findings = append(findings, pkg.annotations().bad...)
		for _, check := range enabled {
			if check.Run == nil {
				continue
			}
			check.Run(&Context{Pkg: pkg, modPath: modPath, check: check, findings: &findings})
		}
	}

	// Module-level checks run once over the loader's whole universe
	// (selected packages plus transitive in-module imports), so call
	// chains cross package boundaries; findings are then filtered to
	// the selected packages.
	var prog *Program
	var mFindings []Finding
	for _, check := range enabled {
		if check.RunModule == nil {
			continue
		}
		if prog == nil {
			prog = buildProgram(ld.fset, ld.allPackages())
		}
		check.RunModule(&ModuleContext{Prog: prog, check: check, findings: &mFindings})
	}
	for _, f := range mFindings {
		if selDirs[filepath.Dir(f.Pos.Filename)] {
			findings = append(findings, f)
		}
	}

	for i := range findings {
		if rel, err := filepath.Rel(root, findings[i].Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			findings[i].Pos.Filename = filepath.ToSlash(rel)
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Check < b.Check
	})
	return findings, nil
}
