// Package lint implements mobilint, the repo-specific static-analysis
// gate behind cmd/mobilint. It machine-checks the contracts the
// simulation results rest on:
//
//   - determinism: simulation/experiment packages must derive all
//     randomness from the seeded stats.RNG, never consult the wall
//     clock, and never let Go's randomized map iteration order leak
//     into series or rendered output (checks time-now, math-rand,
//     unseeded-rng, map-order);
//   - concurrency discipline: goroutines in the protocol/fan-out
//     packages must not capture shared connections without
//     synchronization, and no goroutine anywhere may capture a
//     channel.Model — its response cache is single-owner state (checks
//     go-capture, model-capture). Copied or by-value sync primitives
//     are left to go vet's copylocks analyzer, which CI's Vet step runs
//     on every package;
//   - error hygiene: error results must not be silently dropped, and
//     wrapped errors must use %w so errors.Is/As keep working (checks
//     discarded-error, errorf-wrap);
//   - documentation: every package must carry a package doc comment so
//     the godoc index stays complete (check pkg-doc);
//   - interprocedural contracts, verified over a static call graph of
//     the whole module: //mobilint:hotpath-annotated functions must
//     not reach an allocating construct on any warm call path, with
//     the offending chain printed (check hotpath-alloc); a *stats.RNG
//     must be Split before crossing a goroutine or worker-pool
//     boundary (check rng-split); and only //mobilint:stdout-annotated
//     writers may touch os.Stdout or fmt.Print* (check stdout-purity).
//     The graph resolves direct and concrete-method calls statically,
//     interface calls conservatively to every in-module implementation,
//     and func-value calls to locally assigned literals.
//
// A finding can be suppressed with a justified directive on the same
// line or the line above:
//
//	//lint:ignore <check> <reason>
//
// Directives without a reason (or naming an unknown check) are
// themselves findings (bad-ignore) and suppress nothing; the same
// applies to malformed //mobilint: annotations (bad-annotation).
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

// Check is one named, suppressible rule. Exactly one of Run (a
// per-package AST check) and RunModule (an interprocedural check over
// the whole call-graph universe) is set.
type Check struct {
	// Name identifies the check in output and //lint:ignore directives.
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
	unseededRNGCheck,
	mapOrderCheck,
	goCaptureCheck,
	modelCaptureCheck,
	discardedErrorCheck,
	errorfWrapCheck,
	pkgDocCheck,
	stdoutPurityCheck,
	hotpathCheck,
	rngSplitCheck,
}

// badIgnoreCheck is the name under which malformed suppression
// directives are reported. It is not a Run-style check: the runner
// emits it while parsing directives.
const badIgnoreCheck = "bad-ignore"

func checkByName(name string) *Check {
	for _, c := range Checks {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// Config selects what to lint and which package sets each contract
// applies to. Zero-value fields take repo defaults derived from the
// module path.
type Config struct {
	// Dir is any directory inside the module; the module root and path
	// are discovered from it. Empty means ".".
	Dir string
	// Patterns are package patterns relative to Dir: a directory, or a
	// "dir/..." subtree. Empty means "./...".
	Patterns []string
	// Checks enables a subset of checks by name. Empty enables all.
	Checks []string
	// DeterminismPkgs are import-path prefixes where the determinism
	// checks apply. Default: <module>/internal/.
	DeterminismPkgs []string
	// ConcurrencyPkgs are import-path prefixes where go-capture
	// applies. Default: <module>/internal/ctlproto and
	// <module>/internal/parallel.
	ConcurrencyPkgs []string
	// RNGAllowedPkgs are import-path prefixes allowed to construct
	// random generators. Default: <module>/internal/stats.
	RNGAllowedPkgs []string
}

func (cfg *Config) applyDefaults(modPath string) {
	if len(cfg.Patterns) == 0 {
		cfg.Patterns = []string{"./..."}
	}
	if cfg.DeterminismPkgs == nil {
		cfg.DeterminismPkgs = []string{modPath + "/internal/"}
	}
	if cfg.ConcurrencyPkgs == nil {
		cfg.ConcurrencyPkgs = []string{
			modPath + "/internal/ctlproto",
			modPath + "/internal/parallel",
		}
	}
	if cfg.RNGAllowedPkgs == nil {
		cfg.RNGAllowedPkgs = []string{modPath + "/internal/stats"}
	}
}

// pathMatches reports whether an import path falls under any prefix.
// A prefix ending in "/" matches any path below it; otherwise it
// matches the exact package or its subpackages.
func pathMatches(path string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasSuffix(p, "/") {
			if strings.HasPrefix(path, p) {
				return true
			}
			continue
		}
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

// Context is the per-package state handed to a Check's Run.
type Context struct {
	Cfg *Config
	Pkg *Package

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
// contract.
func (ctx *Context) InDeterminism() bool {
	return pathMatches(ctx.Pkg.ImportPath, ctx.Cfg.DeterminismPkgs)
}

// InConcurrency reports whether the package is under the goroutine
// capture contract.
func (ctx *Context) InConcurrency() bool {
	return pathMatches(ctx.Pkg.ImportPath, ctx.Cfg.ConcurrencyPkgs)
}

// RNGAllowed reports whether the package may construct RNGs directly.
func (ctx *Context) RNGAllowed() bool {
	return pathMatches(ctx.Pkg.ImportPath, ctx.Cfg.RNGAllowedPkgs)
}

// TypeOf returns the static type of e, or nil if unknown.
func (ctx *Context) TypeOf(e ast.Expr) types.Type {
	return ctx.Pkg.Info.TypeOf(e)
}

// ModuleContext is the state handed to a module-level check's
// RunModule: the call-graph Program over every loaded module package.
type ModuleContext struct {
	Cfg  *Config
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

// parseDirectives scans a package's comments for //lint:ignore
// directives. It returns a (file, line) -> suppressed-check table and
// bad-ignore findings for malformed directives.
func parseDirectives(pkg *Package) (map[string]map[int][]string, []Finding) {
	sup := map[string]map[int][]string{}
	var bad []Finding
	report := func(pos token.Pos, format string, args ...any) {
		bad = append(bad, Finding{
			Pos:     pkg.Fset.Position(pos),
			Check:   badIgnoreCheck,
			Message: fmt.Sprintf(format, args...),
		})
	}
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//lint:ignore")
				if !ok {
					continue
				}
				if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
					continue // some other //lint:ignoreXxx token
				}
				fields := strings.Fields(rest)
				switch {
				case len(fields) < 2:
					report(c.Pos(), "suppression needs a check name and a reason: //lint:ignore <check> <reason>")
				case checkByName(fields[0]) == nil:
					report(c.Pos(), "suppression names unknown check %q (mobilint -list shows valid names)", fields[0])
				default:
					p := pkg.Fset.Position(c.Pos())
					if sup[p.Filename] == nil {
						sup[p.Filename] = map[int][]string{}
					}
					sup[p.Filename][p.Line] = append(sup[p.Filename][p.Line], fields[0])
				}
			}
		}
	}
	return sup, bad
}

// suppressed reports whether a directive on the finding's line or the
// line above names its check.
func suppressed(f Finding, sup map[string]map[int][]string) bool {
	lines := sup[f.Pos.Filename]
	if lines == nil {
		return false
	}
	for _, line := range []int{f.Pos.Line, f.Pos.Line - 1} {
		for _, check := range lines[line] {
			if check == f.Check {
				return true
			}
		}
	}
	return false
}

// Run lints the packages selected by cfg and returns the surviving
// findings sorted by position. A non-empty result means the gate
// fails; errors are loader/config problems, not findings.
func Run(cfg Config) ([]Finding, error) {
	if cfg.Dir == "" {
		cfg.Dir = "."
	}
	root, modPath, err := findModuleRoot(cfg.Dir)
	if err != nil {
		return nil, err
	}
	cfg.applyDefaults(modPath)

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

	var findings []Finding
	supAll := map[string]map[int][]string{}
	selDirs := map[string]bool{}
	for _, dir := range dirs {
		pkg, err := ld.loadDir(dir)
		if err != nil {
			return nil, err
		}
		selDirs[pkg.Dir] = true
		sup, bad := parseDirectives(pkg)
		for file, lines := range sup {
			supAll[file] = lines
		}
		pkgFindings := bad
		pkgFindings = append(pkgFindings, pkg.annotations().bad...)
		for _, check := range enabled {
			if check.Run == nil {
				continue
			}
			ctx := &Context{Cfg: &cfg, Pkg: pkg, check: check, findings: &pkgFindings}
			check.Run(ctx)
		}
		for _, f := range pkgFindings {
			if !suppressed(f, sup) {
				findings = append(findings, f)
			}
		}
	}

	// Module-level checks run once over the loader's whole universe
	// (selected packages plus transitive in-module imports), so call
	// chains cross package boundaries; findings are then filtered to
	// the selected packages and the same suppression table.
	var moduleChecks []*Check
	for _, check := range enabled {
		if check.RunModule != nil {
			moduleChecks = append(moduleChecks, check)
		}
	}
	if len(moduleChecks) > 0 {
		prog := buildProgram(ld.fset, modPath, ld.allPackages())
		var mFindings []Finding
		for _, check := range moduleChecks {
			mctx := &ModuleContext{Cfg: &cfg, Prog: prog, check: check, findings: &mFindings}
			check.RunModule(mctx)
		}
		for _, f := range mFindings {
			if selDirs[filepath.Dir(f.Pos.Filename)] && !suppressed(f, supAll) {
				findings = append(findings, f)
			}
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
