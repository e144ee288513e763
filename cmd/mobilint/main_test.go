package main

import (
	"encoding/json"
	"sort"
	"strings"
	"testing"

	"mobiwlan/internal/lint"
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
	if len(lines) != len(lint.Checks) {
		t.Fatalf("-list: %d lines for %d registered checks", len(lines), len(lint.Checks))
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
	for _, want := range []string{"goroutine-capture", "hotpath-alloc", "stdout-purity"} {
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
