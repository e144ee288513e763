package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// mobilint annotations: the contract grammar the interprocedural
// checks consume.
//
//	//mobilint:hotpath
//	    On a function declaration: the function is a zero-allocation
//	    root; hotpath-alloc verifies nothing it can statically reach
//	    allocates. Takes no arguments.
//	//mobilint:coldstart <reason>
//	    On (or at the end of) a statement inside a hot function: the
//	    statement is warm-up-only code the traversal must skip, with a
//	    justification (e.g. a resize guard the automatic cold-branch
//	    rules cannot see).
//	//mobilint:stdout <reason>
//	    On a function declaration: the function is an approved stdout
//	    writer; stdout-purity allows fmt.Print*/os.Stdout inside it.
//
// Unknown verbs and malformed annotations are reported as
// bad-annotation findings and grant nothing.

// badAnnotationCheck is the reserved name for malformed //mobilint:
// directives, emitted by the annotation parser rather than a check.
const badAnnotationCheck = "bad-annotation"

// pkgAnnotations is the parsed annotation set of one package.
type pkgAnnotations struct {
	// hotpath marks annotated zero-alloc root declarations.
	hotpath map[*ast.FuncDecl]bool
	// stdout maps approved writer declarations to their reason.
	stdout map[*ast.FuncDecl]string
	// cold is the (filename, line) set of //mobilint:coldstart
	// directives; a statement starting on the directive's line or the
	// line below is exempt from hot traversal.
	cold map[string]map[int]bool
	// bad holds the parse findings.
	bad []Finding
}

// coldLine reports whether a //mobilint:coldstart directive covers a
// statement starting at pos (directive on the same line, or on the
// line above).
func (a *pkgAnnotations) coldLine(fset *token.FileSet, pos token.Pos) bool {
	p := fset.Position(pos)
	lines := a.cold[p.Filename]
	return lines != nil && (lines[p.Line] || lines[p.Line-1])
}

// annotations parses (once) and returns the package's //mobilint:
// directive table.
func (p *Package) annotations() *pkgAnnotations {
	if p.ann != nil {
		return p.ann
	}
	a := &pkgAnnotations{
		hotpath: map[*ast.FuncDecl]bool{},
		stdout:  map[*ast.FuncDecl]string{},
		cold:    map[string]map[int]bool{},
	}
	report := func(pos token.Pos, format string, args ...any) {
		a.bad = append(a.bad, Finding{
			Pos:     p.Fset.Position(pos),
			Check:   badAnnotationCheck,
			Message: fmt.Sprintf(format, args...),
		})
	}
	for _, file := range p.Files {
		// A directive attaches to the declaration whose doc block (or
		// the line immediately above the func keyword) contains it.
		type attach struct {
			lo, hi int
			decl   *ast.FuncDecl
		}
		var decls []attach
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			line := p.Fset.Position(fd.Pos()).Line
			lo := line - 1
			if fd.Doc != nil {
				if dl := p.Fset.Position(fd.Doc.Pos()).Line; dl < lo {
					lo = dl
				}
			}
			decls = append(decls, attach{lo: lo, hi: line, decl: fd})
		}
		declAt := func(line int) *ast.FuncDecl {
			for _, d := range decls {
				if line >= d.lo && line <= d.hi {
					return d.decl
				}
			}
			return nil
		}
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//mobilint:")
				if !ok {
					continue
				}
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					report(c.Pos(), "empty //mobilint: directive")
					continue
				}
				pos := p.Fset.Position(c.Pos())
				switch fields[0] {
				case "hotpath":
					if len(fields) > 1 {
						report(c.Pos(), "//mobilint:hotpath takes no arguments")
						continue
					}
					d := declAt(pos.Line)
					if d == nil {
						report(c.Pos(), "//mobilint:hotpath must sit on a function declaration")
						continue
					}
					a.hotpath[d] = true
				case "stdout":
					if len(fields) < 2 {
						report(c.Pos(), "//mobilint:stdout needs a reason: //mobilint:stdout <why this writer owns stdout>")
						continue
					}
					d := declAt(pos.Line)
					if d == nil {
						report(c.Pos(), "//mobilint:stdout must sit on a function declaration")
						continue
					}
					a.stdout[d] = strings.Join(fields[1:], " ")
				case "coldstart":
					if len(fields) < 2 {
						report(c.Pos(), "//mobilint:coldstart needs a reason: //mobilint:coldstart <why this only runs during warm-up>")
						continue
					}
					if a.cold[pos.Filename] == nil {
						a.cold[pos.Filename] = map[int]bool{}
					}
					a.cold[pos.Filename][pos.Line] = true
				default:
					report(c.Pos(), "unknown //mobilint: verb %q (valid: hotpath, coldstart, stdout)", fields[0])
				}
			}
		}
	}
	p.ann = a
	return a
}
