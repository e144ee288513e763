package lint

import "strings"

// pkgDocCheck requires every package to carry a package doc comment on
// at least one of its files. The repo's documentation contract
// (DESIGN.md §12, docs/OPERATIONS.md) leans on package synopses: godoc
// renders them as the package index, and an undocumented package is
// invisible there. The check reports the package clause of the first
// file (alphabetical order) so the finding has a stable position.
var pkgDocCheck = &Check{
	Name: "pkg-doc",
	Doc:  "every package must have a package doc comment on one of its files",
	Run: func(ctx *Context) {
		if len(ctx.Pkg.Files) == 0 {
			return
		}
		for _, f := range ctx.Pkg.Files {
			if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
				return
			}
		}
		f := ctx.Pkg.Files[0]
		ctx.Reportf(f.Package, "package %s has no package doc comment on any file", f.Name.Name)
	},
}
