package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mobiwlan/internal/traceio"
)

// TestBadFlagsExitCode: bad flags exit 2 before any trace is written.
// Capture steps time by the interval, so a zero, negative or
// non-finite one is a bad flag too, not a trace that never ends.
func TestBadFlagsExitCode(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		stderr string
	}{
		{[]string{"-interval", "0"}, "-interval"},
		{[]string{"-interval", "-0.1"}, "-interval"},
		{[]string{"-interval", "NaN"}, "-interval"},
		{[]string{"-interval", "+Inf"}, "-interval"},
		{[]string{"-mode", "teleport"}, "unknown mode"},
		{[]string{"-not-a-flag"}, "not-a-flag"},
	} {
		var stdout, stderr bytes.Buffer
		args := append([]string{"-mode", "static", "-duration", "1"}, tc.args...)
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2 (stderr: %s)", tc.args, code, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: wrote %d bytes of trace", tc.args, stdout.Len())
		}
		if !strings.Contains(stderr.String(), tc.stderr) {
			t.Errorf("%v: stderr %q does not mention %q", tc.args, stderr.String(), tc.stderr)
		}
	}
}

// TestSummarizeSpanIgnoresRecordOrder pins -summarize's first line: the
// record count and the span from the earliest to the latest record
// time, whatever order the file lists them in.
func TestSummarizeSpanIgnoresRecordOrder(t *testing.T) {
	var trace bytes.Buffer
	if code := run([]string{"-mode", "static", "-duration", "1.5", "-interval", "0.5"}, &trace, &bytes.Buffer{}); code != 0 {
		t.Fatalf("capture exited %d", code)
	}
	recs, err := traceio.Read(&trace)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("captured %d records, want 3", len(recs))
	}
	shuffled := []traceio.Record{recs[1], recs[2], recs[0]}

	dir := t.TempDir()
	for _, tc := range []struct {
		name string
		recs []traceio.Record
	}{{"sorted", recs}, {"shuffled", shuffled}} {
		var buf bytes.Buffer
		if err := traceio.Write(&buf, tc.recs); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, tc.name+".jsonl")
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-summarize", path}, &stdout, &stderr); code != 0 {
			t.Fatalf("%s: exit %d (stderr: %s)", tc.name, code, stderr.String())
		}
		first, _, _ := strings.Cut(stdout.String(), "\n")
		if want := "records:            3 over 1.0 s"; first != want {
			t.Errorf("%s: first line %q, want %q", tc.name, first, want)
		}
	}
}
