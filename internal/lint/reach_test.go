package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// reachAllow lists the exported functions and methods that no program
// reaches but that stay because tests read them: state accessors a test
// needs to observe what a program only acts on. Each names the package
// directory and a test there that reads it.
var reachAllow = map[string]struct{ dir, test string }{
	"core.HeadingAccuracy":             {"internal/core", "TestMacroHeadingAccuracy"},
	"core.State.Heading":               {"internal/core", "TestStateModeHeadingRoundTrip"},
	"ctlproto.Coordinator.ClientState": {"internal/ctlproto", "TestCoordinatorClientState"},
	"ctlproto.DecisionLog.WriteText":   {"internal/ctlproto", "TestSoakShardedFleet"},
	"ctlproto.DeltaDecoder.Clients":    {"internal/ctlproto", "TestDeltaDecoderValidation"},
	"ctlproto.Server.SessionStats":     {"internal/ctlproto", "TestSoakShardedFleet"},
	"geom.Vector.Len":                  {"internal/geom", "TestVectorOps"},
	"loadgen.Defaults":                 {"internal/loadgen", "TestHashFleetPinned"},
	"obs.SyncTracer.Dropped":           {"internal/obs", "TestConcurrentSyncTracer"},
	"obs.SyncTracer.Events":            {"internal/obs", "TestConcurrentSyncTracer"},
	"ratecontrol.Atheros.CurrentIndex": {"internal/ratecontrol", "TestAtherosStartsHigh"},
	"ratecontrol.Atheros.Ladder":       {"internal/ratecontrol", "TestAtherosStartsHigh"},
	"ratecontrol.Atheros.Params":       {"internal/ratecontrol", "TestMobilityAwareStateSwitchesParams"},
	"ratecontrol.MobilityAware.Inner":  {"internal/ratecontrol", "TestMobilityAwareStateSwitchesParams"},
	"ratecontrol.MobilityAware.State":  {"internal/ratecontrol", "TestMobilityAwareStateSwitchesParams"},
	"stats.MedianFilter.Len":           {"internal/stats", "TestMedianFilter"},
	"stats.MovingWindow.Len":           {"internal/stats", "TestMovingWindowEviction"},
	"tof.TrendDetector.Ready":          {"internal/tof", "TestTrendDetectorNotReady"},
	"transport.CBR.Backlog":            {"internal/transport", "TestCBRAccumulation"},
	"transport.TCPReno.Cwnd":           {"internal/transport", "TestTCPSlowStartGrowth"},
}

// TestReachability fails on every exported function or method of the
// module that no program reaches and that reachAllow does not list. The
// roots are every main and init function, every package-level
// declaration (initializers included) and every function of perfbench,
// the benchmark that compiles against the module. From a reached body
// the scan follows every reference to a module function or method,
// called or not. A method reached through an interface is approximated
// by name: a call of interface method M reaches every module method
// named M, as does a standard-library function or field whose interface
// parameter or type has a method M; fmt reaches String and Error. Such
// a dispatched name reaches a method only once its receiver type is
// live: named in a reached body or a package-level declaration. A type
// that only tests build therefore does not keep its methods.
func TestReachability(t *testing.T) {
	scan := loadReach(t, "../..")
	reached := scan.reach()
	var dead []*types.Func
	for fn := range scan.decls {
		if fn.Exported() && !reached[fn] {
			dead = append(dead, fn)
		}
	}
	sort.Slice(dead, func(i, j int) bool {
		a, b := scan.pkgs[0].Fset.Position(dead[i].Pos()), scan.pkgs[0].Fset.Position(dead[j].Pos())
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	for _, fn := range dead {
		if _, ok := reachAllow[reachKey(fn)]; !ok {
			t.Errorf("%s: %s is reached by no program; delete it or give it a consumer", scan.pos(fn), reachKey(fn))
		}
	}

	// The allowlist must not outlive its reasons: every entry names an
	// unreached function, an existing test, and a package whose tests
	// still use the name.
	unreached := map[string]bool{}
	for _, fn := range dead {
		unreached[reachKey(fn)] = true
	}
	for key, at := range reachAllow {
		if !unreached[key] {
			t.Errorf("reachAllow lists %s, which is reached or gone; drop the entry", key)
			continue
		}
		funcs, idents := testNames(t, filepath.Join(scan.root, at.dir))
		if !funcs[at.test] {
			t.Errorf("reachAllow: %s names %s, which %s does not define", key, at.test, at.dir)
		}
		if name := key[strings.LastIndex(key, ".")+1:]; !idents[name] {
			t.Errorf("reachAllow: no test in %s reads %s; delete it", at.dir, key)
		}
	}
}

// reachScan is every package under a module root, perfbench included,
// with the module's declared functions and methods.
type reachScan struct {
	root    string
	modPath string
	pkgs    []*Package
	decls   map[*types.Func]*ast.FuncDecl
	// methods lists the module's methods by name, for dispatch.
	methods map[string][]*types.Func
}

// loadReach type-checks every package directory below the module root
// that contains dir.
func loadReach(t *testing.T, dir string) *reachScan {
	t.Helper()
	root, modPath, err := findModuleRoot(dir)
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := packageDirs(root)
	if err != nil {
		t.Fatal(err)
	}
	ld := newLoader(root, modPath)
	for _, d := range dirs {
		if _, err := ld.loadDir(d); err != nil {
			t.Fatal(err)
		}
	}
	s := &reachScan{root: root, modPath: modPath, pkgs: ld.allPackages(),
		decls: map[*types.Func]*ast.FuncDecl{}, methods: map[string][]*types.Func{}}
	for _, pkg := range s.pkgs {
		if pkg.TypeErr != nil {
			t.Fatalf("%s does not type-check: %v", pkg.ImportPath, pkg.TypeErr)
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn := pkg.Info.Defs[fd.Name].(*types.Func)
				s.decls[fn] = fd
				if fd.Recv != nil {
					s.methods[fn.Name()] = append(s.methods[fn.Name()], fn)
				}
			}
		}
	}
	return s
}

// reach returns the set of module functions and methods the roots
// reach.
func (s *reachScan) reach() map[*types.Func]bool {
	reached := map[*types.Func]bool{}
	dispatched := map[string]bool{}
	var work []*types.Func
	mark := func(fn *types.Func) {
		fn = fn.Origin()
		if _, ok := s.decls[fn]; ok && !reached[fn] {
			reached[fn] = true
			work = append(work, fn)
		}
	}
	// live holds the module types reached code names; waiting holds,
	// per type not yet live, the dispatched methods it would reach.
	live := map[*types.TypeName]bool{}
	waiting := map[*types.TypeName][]*types.Func{}
	use := func(tn *types.TypeName) {
		if !live[tn] {
			live[tn] = true
			for _, m := range waiting[tn] {
				mark(m)
			}
			delete(waiting, tn)
		}
	}
	dispatch := func(name string) {
		if !dispatched[name] {
			dispatched[name] = true
			for _, m := range s.methods[name] {
				if tn := recvTypeName(m); live[tn] {
					mark(m)
				} else {
					waiting[tn] = append(waiting[tn], m)
				}
			}
		}
	}
	dispatchIface := func(typ types.Type) {
		if it, ok := typ.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				dispatch(it.Method(i).Name())
			}
		}
	}
	pkgOf := map[*types.Func]*Package{}
	walk := func(pkg *Package, n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			switch obj := pkg.Info.Uses[id].(type) {
			case *types.Func:
				sig := obj.Type().(*types.Signature)
				switch _, inModule := s.decls[obj.Origin()]; {
				case sig.Recv() != nil && types.IsInterface(sig.Recv().Type()):
					dispatch(obj.Name())
				case inModule:
					mark(obj)
				default:
					for i := 0; i < sig.Params().Len(); i++ {
						dispatchIface(sig.Params().At(i).Type())
					}
				}
			case *types.Var:
				if obj.IsField() && obj.Pkg() != nil && !s.inModule(obj.Pkg().Path()) {
					dispatchIface(obj.Type())
				}
			case *types.TypeName:
				if obj.Pkg() != nil && s.inModule(obj.Pkg().Path()) {
					use(obj)
				}
			}
			return true
		})
	}
	dispatch("String")
	dispatch("Error")
	for _, pkg := range s.pkgs {
		perf := pkg.ImportPath == s.modPath+"/perfbench"
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					walk(pkg, d)
					continue
				}
				fn := pkg.Info.Defs[fd.Name].(*types.Func)
				pkgOf[fn] = pkg
				isMain := pkg.Types.Name() == "main" && fd.Name.Name == "main"
				if fd.Recv == nil && (isMain || fd.Name.Name == "init") || perf {
					mark(fn)
				}
			}
		}
	}
	for len(work) > 0 {
		fn := work[len(work)-1]
		work = work[:len(work)-1]
		walk(pkgOf[fn], s.decls[fn])
	}
	return reached
}

// inModule reports whether an import path lies inside the module.
func (s *reachScan) inModule(path string) bool {
	return path == s.modPath || strings.HasPrefix(path, s.modPath+"/")
}

// pos renders fn's declaration as a module-relative file:line.
func (s *reachScan) pos(fn *types.Func) string {
	p := s.pkgs[0].Fset.Position(s.decls[fn].Pos())
	rel, err := filepath.Rel(s.root, p.Filename)
	if err != nil {
		rel = p.Filename
	}
	return fmt.Sprintf("%s:%d", filepath.ToSlash(rel), p.Line)
}

// recvTypeName returns the named type a method is declared on.
func recvTypeName(m *types.Func) *types.TypeName {
	rt := m.Type().(*types.Signature).Recv().Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	return rt.(*types.Named).Origin().Obj()
}

// reachKey names fn as pkg.Func or pkg.Type.Method.
func reachKey(fn *types.Func) string {
	key := fn.Pkg().Name() + "."
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		rt := recv.Type()
		if p, ok := rt.(*types.Pointer); ok {
			rt = p.Elem()
		}
		if nt, ok := rt.(*types.Named); ok {
			key += nt.Obj().Name() + "."
		}
	}
	return key + fn.Name()
}

// testNames parses the _test.go files in dir and returns the functions
// they declare and the identifiers they use.
func testNames(t *testing.T, dir string) (funcs, idents map[string]bool) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	funcs, idents = map[string]bool{}, map[string]bool{}
	fset := token.NewFileSet()
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				funcs[fd.Name.Name] = true
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						idents[id.Name] = true
					}
					return true
				})
			}
		}
	}
	return funcs, idents
}
