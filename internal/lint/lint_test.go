package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// fixtureConfig lints one fixture package under testdata/src. Every
// fixture's import path lies below <module>/internal/, so the
// determinism checks apply to all of them, as to the real simulator;
// the outside fixture is its own module, standing outside internal/.
func fixtureConfig(dir string) Config {
	return Config{Dir: filepath.Join("testdata", "src", dir), Patterns: []string{"."}}
}

var wantRe = regexp.MustCompile(`// want ([a-z0-9-]+(?: [a-z0-9-]+)*)\s*$`)

// wantMarkers reads the "// want check1 check2" markers from every
// fixture file, keyed by "file:line".
func wantMarkers(t *testing.T, dir string) map[string][]string {
	t.Helper()
	want := map[string][]string{}
	root := filepath.Join("testdata", "src", dir)
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(root, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			key := fmt.Sprintf("%s:%d", e.Name(), i+1)
			want[key] = append(want[key], strings.Fields(m[1])...)
			sort.Strings(want[key])
		}
	}
	return want
}

// gotFindings groups findings by "file:line" with sorted check names.
func gotFindings(findings []Finding) map[string][]string {
	got := map[string][]string{}
	for _, f := range findings {
		key := fmt.Sprintf("%s:%d", filepath.Base(f.Pos.Filename), f.Pos.Line)
		got[key] = append(got[key], f.Check)
		sort.Strings(got[key])
	}
	return got
}

// fixtures lists every fixture package under testdata/src; a bad one
// must fail the gate.
var fixtures = []struct {
	dir string
	bad bool
}{
	{"determ", true}, {"rngbad", true}, {"rngok", false}, {"gocap", true},
	{"modelcap", true}, {"errs", true}, {"clean", false}, {"nodoc", true},
	{"hotpath", true}, {"rngflow", true}, {"stdoutpure", true},
	{"graph", false}, {"outside", true}, {"buildtags", false},
}

// TestFixtures runs every check against each fixture package and
// compares the findings with the // want markers in the sources. A bad
// fixture must carry at least one marker.
func TestFixtures(t *testing.T) {
	for _, fx := range fixtures {
		t.Run(fx.dir, func(t *testing.T) {
			findings, err := Run(fixtureConfig(fx.dir))
			if err != nil {
				t.Fatal(err)
			}
			want := wantMarkers(t, fx.dir)
			if fx.bad && len(want) == 0 {
				t.Fatalf("bad fixture %s carries no // want marker", fx.dir)
			}
			got := gotFindings(findings)
			for key, checks := range want {
				if !reflect.DeepEqual(got[key], checks) {
					t.Errorf("%s: want findings %v, got %v", key, checks, got[key])
				}
			}
			for key, checks := range got {
				if want[key] == nil {
					t.Errorf("%s: unexpected findings %v", key, checks)
				}
			}
		})
	}
}

// TestTypeErrorFailsRun pins that a package which does not type-check
// is a Run error naming the package, not a silent pass.
func TestTypeErrorFailsRun(t *testing.T) {
	_, err := Run(fixtureConfig("typeerr"))
	if err == nil || !strings.Contains(err.Error(), "internal/lint/testdata/src/typeerr does not type-check") {
		t.Fatalf("want a type-check error naming the package, got %v", err)
	}
}

// TestFixturesFailTheGate pins the acceptance property: every bad
// fixture yields findings, and each finding renders with its file:line
// and check name.
func TestFixturesFailTheGate(t *testing.T) {
	for _, fx := range fixtures {
		if !fx.bad {
			continue
		}
		findings, err := Run(fixtureConfig(fx.dir))
		if err != nil {
			t.Fatal(err)
		}
		if len(findings) == 0 {
			t.Errorf("%s: want findings, got none", fx.dir)
			continue
		}
		for _, f := range findings {
			s := f.String()
			if f.Pos.Filename == "" || f.Pos.Line <= 0 || !strings.Contains(s, ".go:") || !strings.Contains(s, "["+f.Check+"]") {
				t.Errorf("%s: finding without file:line or check name: %q", fx.dir, s)
			}
		}
	}
}

// TestCheckSubset runs a single named check and expects only its
// findings.
func TestCheckSubset(t *testing.T) {
	cfg := fixtureConfig("determ")
	cfg.Checks = []string{"time-now"}
	findings, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) == 0 {
		t.Fatal("want time-now findings, got none")
	}
	for _, f := range findings {
		if f.Check != "time-now" {
			t.Errorf("subset run leaked check %s: %s", f.Check, f)
		}
	}
}

// TestUnknownCheck rejects config typos instead of silently running
// nothing.
func TestUnknownCheck(t *testing.T) {
	cfg := fixtureConfig("determ")
	cfg.Checks = []string{"no-such-check"}
	if _, err := Run(cfg); err == nil {
		t.Fatal("want error for unknown check name")
	}
}

// TestCheckNamesUniqueAndDocumented guards the registry invariants
// the -checks flag and -list output rely on.
func TestCheckNamesUniqueAndDocumented(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range Checks {
		if c.Name == "" || c.Doc == "" {
			t.Errorf("check %+v incomplete", c)
		}
		if (c.Run == nil) == (c.RunModule == nil) {
			t.Errorf("check %s must set exactly one of Run and RunModule", c.Name)
		}
		if seen[c.Name] {
			t.Errorf("duplicate check name %s", c.Name)
		}
		seen[c.Name] = true
		if c.Name != strings.ToLower(c.Name) || strings.ContainsAny(c.Name, " \t") {
			t.Errorf("check name %q not a lowercase token", c.Name)
		}
	}
	if seen[badAnnotationCheck] {
		t.Errorf("%s is reserved for the annotation parser", badAnnotationCheck)
	}
}

// TestModuleIsClean is the gate itself: the real tree must lint clean.
// Skipped in -short mode; CI runs the gate as a separate step.
func TestModuleIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; covered by the CI mobilint step")
	}
	findings, err := Run(Config{Dir: "../.."})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}

// TestHotpathChainReported is the acceptance demo for hotpath-alloc:
// the hotpath fixture's MeasureInto-shaped root reaches fmt.Sprintf
// two calls down (MeasureInto -> response -> label), and the finding
// must print that full chain, in order, not just the Sprintf site.
func TestHotpathChainReported(t *testing.T) {
	findings, err := Run(fixtureConfig("hotpath"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		if f.Check != "hotpath-alloc" || !strings.Contains(f.Message, "fmt.Sprintf") {
			continue
		}
		msg := f.Message
		i := strings.Index(msg, "MeasureInto")
		j := strings.Index(msg, "response")
		k := strings.Index(msg, "label")
		if i < 0 || j < 0 || k < 0 || !(i < j && j < k) {
			t.Errorf("chain out of order or incomplete: %q", msg)
		}
		return
	}
	t.Fatalf("no hotpath-alloc finding for the fmt.Sprintf chain in %v", findings)
}
