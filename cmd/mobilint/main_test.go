package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

const (
	cleanFixture = "../../internal/lint/testdata/src/clean"
	dirtyFixture = "../../internal/lint/testdata/src/errs"
)

// runCLI invokes the CLI body and captures both streams.
func runCLI(args ...string) (code int, stdout, stderr string) {
	var out, errBuf strings.Builder
	code = run(args, &out, &errBuf)
	return code, out.String(), errBuf.String()
}

// TestExitCodes pins the 0/1/2 contract CI scripts rely on.
func TestExitCodes(t *testing.T) {
	if code, _, _ := runCLI(cleanFixture); code != 0 {
		t.Errorf("clean fixture: want exit 0, got %d", code)
	}
	code, out, errOut := runCLI(dirtyFixture)
	if code != 1 {
		t.Errorf("dirty fixture: want exit 1, got %d", code)
	}
	if !strings.Contains(out, ".go:") || !strings.Contains(errOut, "finding(s)") {
		t.Errorf("dirty fixture: findings on stdout and count on stderr expected; stdout=%q stderr=%q", out, errOut)
	}
	if code, _, _ := runCLI("-checks", "no-such-check", cleanFixture); code != 2 {
		t.Errorf("unknown check: want exit 2, got %d", code)
	}
	if code, _, _ := runCLI("-format", "xml", cleanFixture); code != 2 {
		t.Errorf("unknown format: want exit 2, got %d", code)
	}
	if code, _, _ := runCLI("-no-such-flag"); code != 2 {
		t.Errorf("unknown flag: want exit 2, got %d", code)
	}
}

// TestListOutput checks -list is sorted and carries a description for
// every check.
func TestListOutput(t *testing.T) {
	code, out, _ := runCLI("-list")
	if code != 0 {
		t.Fatalf("-list: want exit 0, got %d", code)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) < 10 {
		t.Fatalf("-list: suspiciously few checks: %d", len(lines))
	}
	var names []string
	for _, line := range lines {
		fields := strings.Fields(line)
		if len(fields) < 2 {
			t.Errorf("-list line %q lacks name and description", line)
			continue
		}
		names = append(names, fields[0])
	}
	if !sort.StringsAreSorted(names) {
		t.Errorf("-list output not sorted: %v", names)
	}
	for _, want := range []string{"hotpath-alloc", "rng-split", "stdout-purity"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("-list is missing %s", want)
		}
	}
}

// jsonReport mirrors the -format json envelope.
type jsonReport struct {
	Version  int `json:"version"`
	Count    int `json:"count"`
	Findings []struct {
		File    string `json:"file"`
		Line    int    `json:"line"`
		Check   string `json:"check"`
		Message string `json:"message"`
	} `json:"findings"`
}

// TestJSONFormat checks the machine-readable report parses and agrees
// with the exit code.
func TestJSONFormat(t *testing.T) {
	code, out, _ := runCLI("-format", "json", dirtyFixture)
	if code != 1 {
		t.Fatalf("want exit 1, got %d", code)
	}
	var rep jsonReport
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("-format json output does not parse: %v\n%s", err, out)
	}
	if rep.Version != 1 || rep.Count != len(rep.Findings) || rep.Count == 0 {
		t.Fatalf("inconsistent report: version=%d count=%d findings=%d", rep.Version, rep.Count, len(rep.Findings))
	}
	for _, f := range rep.Findings {
		if f.File == "" || f.Line <= 0 || f.Check == "" || f.Message == "" {
			t.Errorf("incomplete finding %+v", f)
		}
	}
}

// TestBaselineAbsorbsFindings pins the ratchet workflow: recording
// today's findings in a baseline turns exit 1 into exit 0, and an
// empty baseline changes nothing.
func TestBaselineAbsorbsFindings(t *testing.T) {
	_, out, _ := runCLI("-format", "json", dirtyFixture)
	var rep jsonReport
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatal(err)
	}

	type blFinding struct {
		Check   string `json:"check"`
		File    string `json:"file"`
		Message string `json:"message"`
	}
	bl := struct {
		Version  int         `json:"version"`
		Findings []blFinding `json:"findings"`
	}{Version: 1}
	for _, f := range rep.Findings {
		bl.Findings = append(bl.Findings, blFinding{f.Check, f.File, f.Message})
	}
	data, err := json.Marshal(bl)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	code, _, errOut := runCLI("-baseline", path, dirtyFixture)
	if code != 0 {
		t.Errorf("fully baselined run: want exit 0, got %d (stderr %q)", code, errOut)
	}
	if !strings.Contains(errOut, "baselined") {
		t.Errorf("stderr should report absorbed findings, got %q", errOut)
	}

	empty := filepath.Join(t.TempDir(), "empty.json")
	if err := os.WriteFile(empty, []byte(`{"version":1,"findings":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, _ := runCLI("-baseline", empty, dirtyFixture); code != 1 {
		t.Errorf("empty baseline must not absorb anything: want exit 1, got %d", code)
	}
	if code, _, _ := runCLI("-baseline", filepath.Join(t.TempDir(), "missing.json"), dirtyFixture); code != 2 {
		t.Errorf("unreadable baseline: want exit 2, got %d", code)
	}
}
