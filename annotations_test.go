package mobiwlan_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// hotpathPin names one function that a root Test*AllocFree test pins
// dynamically and that must therefore carry the //mobilint:hotpath
// annotation for the static gate.
type hotpathPin struct {
	file string // module-relative path of the declaring file
	recv string // receiver type name, "" for plain functions
	name string // function or method name
}

// hotpathManifest maps each AllocsPerRun test in alloc_test.go to the
// annotated functions its timed loop exercises. Adding an alloc pin
// without extending this table (or annotating the function) fails
// TestHotpathAnnotationsCoverAllocPins; annotating a function nothing
// pins fails TestHotpathAnnotationsAreAllPinned.
var hotpathManifest = map[string][]hotpathPin{
	"TestResponseIntoAllocFree": {
		{"internal/channel/channel.go", "Model", "ResponseInto"},
	},
	"TestMeasureIntoAllocFree": {
		{"internal/channel/channel.go", "Model", "MeasureInto"},
	},
	"TestKernelStrategiesAllocFree": {
		{"internal/channel/kernel.go", "Model", "evalIncremental"},
		{"internal/channel/kernel.go", "", "chainSweepPrefixed"},
		{"internal/fastmath/lanes_amd64.go", "", "sincos4"},
		{"internal/fastmath/lanes_amd64.go", "", "log4"},
		{"internal/fastmath/lanes_amd64.go", "", "exp4"},
		{"internal/channel/kernel.go", "Model", "sweepFused"},
		{"internal/channel/chainquad_amd64.go", "", "chainQuad2"},
	},
	"TestWorkspaceSimilarityAllocFree": {
		{"internal/csi/csi.go", "Workspace", "Similarity"},
	},
	"TestClassifierObserveAllocFree": {
		{"internal/core/classifier.go", "Classifier", "ObserveCSI"},
		{"internal/core/classifier.go", "Classifier", "ObserveToF"},
	},
	"TestInstrumentedClassifierAllocFree": {
		{"internal/core/classifier.go", "Classifier", "ObserveCSI"},
		{"internal/core/classifier.go", "Classifier", "ObserveToF"},
	},
	"TestZFWeightsIntoAllocFree": {
		{"internal/beamforming/linalg.go", "ZFSolver", "WeightsInto"},
		{"internal/csi/csi.go", "Matrix", "ColumnInto"},
	},
	"TestEventHeapAllocFree": {
		{"internal/medium/event.go", "EventHeap", "Push"},
		{"internal/medium/event.go", "EventHeap", "Pop"},
	},
	"TestMediumReserveAllocFree": {
		{"internal/medium/medium.go", "Medium", "Reserve"},
	},
	"TestCoordinatorReportAllocFree": {
		{"internal/ctlproto/coordinator.go", "Coordinator", "OnMobilityReportInto"},
	},
	"TestDeltaDecoderApplyAllocFree": {
		{"internal/ctlproto/batch.go", "DeltaDecoder", "Apply"},
	},
	"TestInstrumentedTransmitAllocFree": {
		{"internal/mac/mac.go", "Link", "Transmit"},
	},
}

// recvTypeName extracts the receiver's type identifier ("Model" from
// (m *Model)), or "".
func recvTypeName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// hasHotpathDirective reports whether the declaration's doc block
// carries //mobilint:hotpath.
func hasHotpathDirective(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.TrimSpace(c.Text) == "//mobilint:hotpath" {
			return true
		}
	}
	return false
}

// parseFileDecls parses one source file with comments.
func parseFileDecls(t *testing.T, path string) *ast.File {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse %s: %v", path, err)
	}
	return f
}

// TestHotpathAnnotationsCoverAllocPins asserts the forward direction:
// every Test*AllocFree pin in alloc_test.go appears in the manifest,
// and every function the manifest names carries //mobilint:hotpath,
// so the static hotpath-alloc gate guards exactly what the dynamic
// AllocsPerRun pins measure.
func TestHotpathAnnotationsCoverAllocPins(t *testing.T) {
	// Every alloc test is in the manifest.
	af := parseFileDecls(t, "alloc_test.go")
	for _, d := range af.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Recv != nil {
			continue
		}
		if !strings.HasPrefix(fd.Name.Name, "Test") || !strings.HasSuffix(fd.Name.Name, "AllocFree") {
			continue
		}
		if _, ok := hotpathManifest[fd.Name.Name]; !ok {
			t.Errorf("%s pins allocations but is missing from hotpathManifest; add its hot functions and annotate them //mobilint:hotpath", fd.Name.Name)
		}
	}
	// Every manifest test still exists.
	declared := map[string]bool{}
	for _, d := range af.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok {
			declared[fd.Name.Name] = true
		}
	}
	for test := range hotpathManifest {
		if !declared[test] {
			t.Errorf("hotpathManifest lists %s, which no longer exists in alloc_test.go", test)
		}
	}

	// Every pinned function is annotated.
	files := map[string]*ast.File{}
	for _, pins := range hotpathManifest {
		for _, pin := range pins {
			f, ok := files[pin.file]
			if !ok {
				f = parseFileDecls(t, pin.file)
				files[pin.file] = f
			}
			found := false
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Name.Name != pin.name || recvTypeName(fd) != pin.recv {
					continue
				}
				found = true
				if !hasHotpathDirective(fd) {
					t.Errorf("%s: (%s).%s is alloc-pinned but lacks //mobilint:hotpath", pin.file, pin.recv, pin.name)
				}
			}
			if !found {
				t.Errorf("%s: no declaration (%s).%s — update hotpathManifest", pin.file, pin.recv, pin.name)
			}
		}
	}
}

// TestHotpathAnnotationsAreAllPinned asserts the reverse direction:
// every //mobilint:hotpath annotation in the module corresponds to a
// manifest entry, so the static roots cannot drift away from the
// dynamic AllocsPerRun backstop.
func TestHotpathAnnotationsAreAllPinned(t *testing.T) {
	pinned := map[hotpathPin]bool{}
	for _, pins := range hotpathManifest {
		for _, pin := range pins {
			pinned[pin] = true
		}
	}
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if base := filepath.Base(path); base == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if !strings.Contains(string(src), "//mobilint:hotpath") {
			return nil
		}
		f := parseFileDecls(t, path)
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !hasHotpathDirective(fd) {
				continue
			}
			pin := hotpathPin{filepath.ToSlash(path), recvTypeName(fd), fd.Name.Name}
			if !pinned[pin] {
				t.Errorf("%s: (%s).%s is annotated //mobilint:hotpath but no AllocsPerRun test pins it; add a pin to alloc_test.go and hotpathManifest", path, pin.recv, pin.name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pinned) == 0 {
		t.Fatal("hotpathManifest is empty")
	}
	var names []string
	for pin := range pinned {
		names = append(names, pin.recv+"."+pin.name)
	}
	sort.Strings(names)
	t.Logf("cross-referenced %d hot functions: %s", len(names), strings.Join(names, ", "))
}
