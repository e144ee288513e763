package obs

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestFlagsScopeOnlyWhenAsked(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	f := AddFlags(fs, "x")
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if f.Scope() != nil {
		t.Fatal("scope created without a telemetry flag")
	}
	f.Finish() // no-op
}

func TestFlagsFinishWritesDumps(t *testing.T) {
	dir := t.TempDir()
	jsonPath, tracePath := filepath.Join(dir, "m.json"), filepath.Join(dir, "t.jsonl")
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	f := AddFlags(fs, "x")
	if err := fs.Parse([]string{"-metrics-json", jsonPath, "-trace", tracePath}); err != nil {
		t.Fatal(err)
	}
	s := f.Scope()
	if s == nil || s != f.Scope() {
		t.Fatal("Scope must create one scope and return it on every call")
	}
	s.Reg.Counter("x.count").Inc()
	s.Tracer(3).Emit(1, "x", "ev", 0, 0, "")
	f.Finish()
	m, err := os.ReadFile(jsonPath)
	if err != nil || !strings.Contains(string(m), `"x.count": 1`) {
		t.Fatalf("metrics dump: %v\n%s", err, m)
	}
	tr, err := os.ReadFile(tracePath)
	if err != nil || !strings.Contains(string(tr), `"trial":3`) {
		t.Fatalf("trace dump: %v\n%s", err, tr)
	}
}
