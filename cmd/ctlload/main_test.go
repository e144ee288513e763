package main

import (
	"bytes"
	"os"
	"regexp"
	"strings"
	"testing"
)

// smokeArgs is the invocation CI's smoke step replays from the shell;
// its stdout is pinned byte-for-byte in testdata/smoke.golden.
var smokeArgs = []string{"-aps", "16", "-clients", "2", "-reports", "25", "-jobs", "4"}

func TestSmokeGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/smoke.golden")
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run(smokeArgs, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d; stderr:\n%s", code, stderr.String())
	}
	if !bytes.Equal(stdout.Bytes(), want) {
		t.Fatalf("stdout diverged from testdata/smoke.golden:\n--- got ---\n%s--- want ---\n%s",
			stdout.String(), want)
	}
}

// TestSmokeJobsIndependence reruns the smoke workload at other worker
// counts; stdout must not move.
func TestSmokeJobsIndependence(t *testing.T) {
	var base bytes.Buffer
	if code := run(smokeArgs, &base, &bytes.Buffer{}); code != 0 {
		t.Fatalf("base run exited %d", code)
	}
	for _, jobs := range []string{"1", "16"} {
		args := append([]string{}, smokeArgs[:len(smokeArgs)-1]...)
		args = append(args, jobs)
		var stdout bytes.Buffer
		if code := run(args, &stdout, &bytes.Buffer{}); code != 0 {
			t.Fatalf("-jobs %s exited %d", jobs, code)
		}
		if !bytes.Equal(stdout.Bytes(), base.Bytes()) {
			t.Fatalf("-jobs %s diverged:\n%s\nvs\n%s", jobs, stdout.String(), base.String())
		}
	}
}

func TestHashOnly(t *testing.T) {
	var stdout bytes.Buffer
	if code := run([]string{"-hash-only"}, &stdout, &bytes.Buffer{}); code != 0 {
		t.Fatalf("exit %d", code)
	}
	out := stdout.String()
	if !strings.HasPrefix(out, "fleet_hash=0x") || strings.Count(out, "\n") != 1 {
		t.Fatalf("unexpected -hash-only output: %q", out)
	}
	// The pinned default-config hash (see internal/loadgen): -hash-only
	// with ctlload's own defaults uses a different fleet size, so just
	// check stability across calls.
	var again bytes.Buffer
	run([]string{"-hash-only"}, &again, &bytes.Buffer{})
	if again.String() != out {
		t.Fatal("-hash-only not stable")
	}
}

func TestDumpSchedule(t *testing.T) {
	var stdout bytes.Buffer
	args := []string{"-dump-schedule", "-aps", "2", "-clients", "1", "-reports", "13"}
	if code := run(args, &stdout, &bytes.Buffer{}); code != 0 {
		t.Fatalf("exit %d", code)
	}
	lines := strings.Count(stdout.String(), "\n")
	if lines != 2*1*13 {
		t.Fatalf("dump has %d lines, want 26", lines)
	}
	if !strings.Contains(stdout.String(), "trig=true") {
		t.Fatal("no trigger in a 13-report schedule with roam-every 12")
	}
}

func TestBadFlagsExitCode(t *testing.T) {
	cases := [][]string{
		{"-aps", "0"},
		{"-batch", "0"},
		{"-batch", "100000"},
		{"-policy", "explode"},
		{"-not-a-flag"},
	}
	for _, args := range cases {
		var stderr bytes.Buffer
		if code := run(args, &bytes.Buffer{}, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2 (stderr: %s)", args, code, stderr.String())
		}
	}
}

// TestPolicyAndOneEntryBatches exercises the disconnect policy and
// one-entry batches end to end (nothing should drop at these sizes, so
// both exit clean).
func TestPolicyAndOneEntryBatches(t *testing.T) {
	for _, args := range [][]string{
		{"-aps", "4", "-clients", "1", "-reports", "13", "-policy", "disconnect"},
		{"-aps", "4", "-clients", "1", "-reports", "13", "-batch", "1"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit %d; stderr:\n%s", args, code, stderr.String())
		}
		if !strings.Contains(stdout.String(), "dropped=0 out_dropped=0") {
			t.Fatalf("%v: unexpected drops:\n%s", args, stdout.String())
		}
	}
}

// TestBatchSizeMovesOnlyFrames runs the smoke workload with one report
// per frame: only the frame count may differ from the default 64-entry
// batches, and it must equal the report count.
func TestBatchSizeMovesOnlyFrames(t *testing.T) {
	var batched, single bytes.Buffer
	if code := run(smokeArgs, &batched, &bytes.Buffer{}); code != 0 {
		t.Fatalf("default run exited %d", code)
	}
	if code := run(append(append([]string{}, smokeArgs...), "-batch", "1"), &single, &bytes.Buffer{}); code != 0 {
		t.Fatalf("-batch 1 exited %d", code)
	}
	frames := regexp.MustCompile(`frames=\d+`)
	if a, b := frames.ReplaceAllString(batched.String(), "frames=N"), frames.ReplaceAllString(single.String(), "frames=N"); a != b {
		t.Fatalf("-batch 1 moved more than frames=:\n%s\nvs\n%s", single.String(), batched.String())
	}
	counts := regexp.MustCompile(`reports=(\d+) frames=(\d+)`).FindStringSubmatch(single.String())
	if counts == nil || counts[1] != counts[2] {
		t.Fatalf("-batch 1: want one frame per report, got %q", counts)
	}
	if batched.String() == single.String() {
		t.Fatal("-batch 64 and -batch 1 sent the same number of frames")
	}
}
