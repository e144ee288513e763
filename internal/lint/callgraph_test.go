package lint

import (
	"path/filepath"
	"strings"
	"testing"
)

// loadGraphFixture builds the module-wide Program over the graph
// fixture package.
func loadGraphFixture(t *testing.T) *Program {
	t.Helper()
	root, modPath, err := findModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	dir, err := filepath.Abs(filepath.Join("testdata", "src", "graph"))
	if err != nil {
		t.Fatal(err)
	}
	ld := newLoader(root, modPath)
	if _, err := ld.loadDir(dir); err != nil {
		t.Fatal(err)
	}
	return buildProgram(ld.fset, ld.allPackages())
}

// nodeNamed finds a node by its display name.
func nodeNamed(t *testing.T, prog *Program, name string) *FuncNode {
	t.Helper()
	for _, n := range prog.Nodes {
		if n.Name == name {
			return n
		}
	}
	var names []string
	for _, n := range prog.Nodes {
		names = append(names, n.Name)
	}
	t.Fatalf("no node named %q among %v", name, names)
	return nil
}

// soleSite returns the node's only call site.
func soleSite(t *testing.T, n *FuncNode) *CallSite {
	t.Helper()
	if len(n.Calls) != 1 {
		t.Fatalf("%s: want 1 call site, got %d", n.Name, len(n.Calls))
	}
	return n.Calls[0]
}

// targetNames renders a site's resolved targets.
func targetNames(site *CallSite) []string {
	var out []string
	for _, tgt := range site.Targets {
		out = append(out, tgt.Name)
	}
	return out
}

// TestCallGraphEdges pins the edge kinds of the builder on the graph
// fixture: direct, concrete-method, interface-dispatch, closure and
// go-statement edges.
func TestCallGraphEdges(t *testing.T) {
	prog := loadGraphFixture(t)

	// Direct call: one static target, no dispatch flags.
	direct := soleSite(t, nodeNamed(t, prog, "graph.Direct"))
	if got := targetNames(direct); len(got) != 1 || got[0] != "graph.helper" {
		t.Errorf("Direct: want static edge to graph.helper, got %v", got)
	}
	if direct.Interface || direct.Dynamic || direct.Go {
		t.Errorf("Direct: unexpected flags %+v", direct)
	}

	// Concrete method call: static edge to the one method, not
	// interface dispatch.
	method := soleSite(t, nodeNamed(t, prog, "graph.Method"))
	if got := targetNames(method); len(got) != 1 || !strings.Contains(got[0], "Circle") || !strings.Contains(got[0], "Area") {
		t.Errorf("Method: want static edge to Circle.Area, got %v", got)
	}
	if method.Interface {
		t.Errorf("Method: concrete call wrongly marked as interface dispatch")
	}

	// Interface dispatch: conservatively targets every in-module
	// implementation.
	dyn := soleSite(t, nodeNamed(t, prog, "graph.Dynamic"))
	if !dyn.Interface {
		t.Errorf("Dynamic: interface call not marked as dispatch")
	}
	got := targetNames(dyn)
	if len(got) != 2 || !strings.Contains(got[0], "Circle") || !strings.Contains(got[1], "Square") {
		t.Errorf("Dynamic: want [Circle.Area Square.Area], got %v", got)
	}

	// Closure bound to a variable: the call resolves to the literal's
	// synthetic node, owned by the enclosing function.
	closure := nodeNamed(t, prog, "graph.Closure")
	if len(closure.Lits) != 1 {
		t.Fatalf("Closure: want 1 literal node, got %d", len(closure.Lits))
	}
	lit := closure.Lits[0]
	if lit.Parent != closure {
		t.Errorf("Closure: literal's Parent = %v, want the enclosing node", lit.Parent)
	}
	site := soleSite(t, closure)
	if len(site.Targets) != 1 || site.Targets[0] != lit {
		t.Errorf("Closure: call through f should target the literal node, got %v", targetNames(site))
	}

	// go statement: the edge is marked and still statically resolved.
	spawn := soleSite(t, nodeNamed(t, prog, "graph.Spawn"))
	if !spawn.Go {
		t.Errorf("Spawn: go statement edge not marked")
	}
	if got := targetNames(spawn); len(got) != 1 || got[0] != "graph.helper" {
		t.Errorf("Spawn: want edge to graph.helper, got %v", got)
	}
}
