// Command benchstatus runs the repository's root benchmark suite and
// tracks its results as a committed JSON trajectory (BENCH_*.json), so
// hot-path performance regressions fail CI the same way mobilint findings
// do.
//
// Two modes:
//
//	benchstatus -o BENCH_pr3.json
//	    Run the benchmarks and write a normalized snapshot (ns/op, B/op,
//	    allocs/op per benchmark) to the given file.
//
//	benchstatus -check -baseline BENCH_pr5.json [-tol 0.35]
//	    Run the benchmarks and compare against the committed baseline.
//	    A benchmark regresses when its allocs/op or B/op exceed the
//	    baseline by more than 1% (which truncates to exact comparison
//	    for the micro-benchmarks — allocation counts are
//	    hardware-independent — while absorbing runtime background-
//	    allocation jitter on the long end-to-end benches; see
//	    allocTolFrac), or when its ns/op exceeds baseline*(1+tol)
//	    (tolerance absorbs machine-to-machine and run-to-run timing
//	    noise).
//
//	benchstatus -compare [-md] OLD.json NEW.json
//	    Diff two committed snapshots without running anything: a
//	    per-benchmark delta table (ns/op ratio, B/op, allocs/op, with
//	    added/removed benchmarks called out). This is how a PR's
//	    BENCH_prN.json rollover is summarized against the frozen
//	    previous baseline; -md emits a GitHub-flavored markdown table
//	    suitable for a CI job summary. Informational only — the exit
//	    code does not depend on the deltas.
//
// Exit codes mirror cmd/mobilint: 0 clean, 1 regression found, 2 usage or
// execution error.
//
// The tool is stdlib-only and shells out to the local go toolchain. It
// always runs the benchmarks from the module root so relative testdata
// paths resolve, and it strips the -GOMAXPROCS suffix from benchmark
// names so snapshots taken on machines with different core counts stay
// comparable.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// defaultBench selects the hot-path micro-benchmarks: the channel/CSI
// kernels every experiment funnels through, plus the end-to-end classifier
// and link pipelines that consume them. Full figure regeneration benches
// (BenchmarkFigure*) are excluded by default because their runtime would
// dominate CI; pass -bench '.' to snapshot everything.
const defaultBench = "^(BenchmarkChannelResponse|BenchmarkChannelMeasure|BenchmarkCSISimilarity|BenchmarkEffectiveSNR|BenchmarkClassifierPipeline|BenchmarkLinkSimSecond|BenchmarkStaticLinkSecond|BenchmarkStaticLinkSecondUncached|BenchmarkEnvLinkSecond|BenchmarkEnvLinkSecondUncached|BenchmarkWLANFleet|BenchmarkContendedFleet|BenchmarkScenarioFleet|BenchmarkZFPrecoder|BenchmarkCtlBatchEncode|BenchmarkCtlDeltaDecode|BenchmarkCtlCoordinatorReport|BenchmarkCtlLoadSchedule)$"

// Snapshot is the normalized on-disk form of one benchmark run.
type Snapshot struct {
	// Schema identifies the file format for future tooling.
	Schema string `json:"schema"`
	// Bench is the -bench regexp the snapshot was taken with.
	Bench string `json:"bench"`
	// Benchmarks maps benchmark name (sans -GOMAXPROCS suffix) to its
	// measured cost.
	Benchmarks map[string]Result `json:"benchmarks"`
}

// Result is the cost of one benchmark.
type Result struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"b_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

const schemaID = "mobiwlan-bench/1"

//mobilint:stdout benchstatus's verdict table and ok/FAIL line are its CLI contract
func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("benchstatus", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		bench     = fs.String("bench", defaultBench, "benchmark selection regexp passed to go test -bench")
		benchtime = fs.String("benchtime", "", "per-benchmark time or iteration budget (go test -benchtime)")
		count     = fs.Int("count", 1, "runs per benchmark; ns/op keeps the fastest run")
		out       = fs.String("o", "", "write the normalized snapshot JSON to this file")
		check     = fs.Bool("check", false, "compare the run against -baseline and fail on regression")
		baseline  = fs.String("baseline", "", "committed snapshot to compare against (required with -check)")
		tol       = fs.Float64("tol", 0.35, "allowed fractional ns/op slowdown vs baseline")
		compareTo = fs.Bool("compare", false, "diff two snapshot files (OLD NEW args) without running benchmarks")
		md        = fs.Bool("md", false, "with -compare, emit a markdown table (for CI job summaries)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compareTo {
		if fs.NArg() != 2 {
			_, _ = fmt.Fprintln(stderr, "benchstatus: -compare takes exactly two snapshot files: OLD NEW")
			return 2
		}
		oldSnap, err := readSnapshot(fs.Arg(0))
		if err != nil {
			_, _ = fmt.Fprintf(stderr, "benchstatus: %v\n", err)
			return 2
		}
		newSnap, err := readSnapshot(fs.Arg(1))
		if err != nil {
			_, _ = fmt.Fprintf(stderr, "benchstatus: %v\n", err)
			return 2
		}
		reportDelta(stdout, fs.Arg(0), fs.Arg(1), oldSnap, newSnap, *md)
		return 0
	}
	if *check && *baseline == "" {
		_, _ = fmt.Fprintln(stderr, "benchstatus: -check requires -baseline")
		return 2
	}
	if !*check && *out == "" {
		_, _ = fmt.Fprintln(stderr, "benchstatus: nothing to do: pass -o FILE to snapshot, -check -baseline FILE to gate, or -compare OLD NEW to diff")
		return 2
	}

	root, err := moduleRoot()
	if err != nil {
		_, _ = fmt.Fprintf(stderr, "benchstatus: %v\n", err)
		return 2
	}
	snap, err := runBenchmarks(root, *bench, *benchtime, *count, stderr)
	if err != nil {
		_, _ = fmt.Fprintf(stderr, "benchstatus: %v\n", err)
		return 2
	}
	if len(snap.Benchmarks) == 0 {
		_, _ = fmt.Fprintf(stderr, "benchstatus: no benchmarks matched %q\n", *bench)
		return 2
	}

	if *out != "" {
		if err := writeSnapshot(*out, snap); err != nil {
			_, _ = fmt.Fprintf(stderr, "benchstatus: %v\n", err)
			return 2
		}
		_, _ = fmt.Fprintf(stdout, "wrote %d benchmarks to %s\n", len(snap.Benchmarks), *out)
	}
	if *check {
		base, err := readSnapshot(*baseline)
		if err != nil {
			_, _ = fmt.Fprintf(stderr, "benchstatus: %v\n", err)
			return 2
		}
		regressions := compare(base, snap, *tol)
		report(stdout, base, snap, *tol)
		if len(regressions) > 0 {
			_, _ = fmt.Fprintf(stdout, "FAIL: %d benchmark regression(s) vs %s\n", len(regressions), *baseline)
			return 1
		}
		_, _ = fmt.Fprintf(stdout, "ok: no regressions vs %s (ns tolerance %.0f%%)\n", *baseline, *tol*100)
	}
	return 0
}

// moduleRoot locates the directory holding go.mod via the go tool, so the
// benchmarks always run against the repository's root package regardless
// of the invoking directory.
func moduleRoot() (string, error) {
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		return "", fmt.Errorf("go env GOMOD: %w", err)
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == os.DevNull {
		return "", fmt.Errorf("not inside a go module")
	}
	return filepath.Dir(gomod), nil
}

// runBenchmarks executes the root-package benchmarks and parses the
// standard testing output into a Snapshot. With -count > 1, ns/op keeps
// the fastest run (least scheduler noise) while B/op and allocs/op keep
// the maximum (they are deterministic; any variation is a real allocation
// on some path).
func runBenchmarks(root, bench, benchtime string, count int, stderr *os.File) (Snapshot, error) {
	args := []string{"test", "-run", "^$", "-bench", bench, "-benchmem"}
	if benchtime != "" {
		args = append(args, "-benchtime", benchtime)
	}
	if count > 1 {
		args = append(args, "-count", strconv.Itoa(count))
	}
	args = append(args, ".")
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		return Snapshot{}, fmt.Errorf("go %s: %w\n%s", strings.Join(args, " "), err, buf.String())
	}
	snap := Snapshot{Schema: schemaID, Bench: bench, Benchmarks: map[string]Result{}}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		name, res, ok := parseBenchLine(sc.Text())
		if !ok {
			continue
		}
		if prev, seen := snap.Benchmarks[name]; seen {
			if prev.NsPerOp < res.NsPerOp {
				res.NsPerOp = prev.NsPerOp
			}
			if prev.BytesPerOp > res.BytesPerOp {
				res.BytesPerOp = prev.BytesPerOp
			}
			if prev.AllocsPerOp > res.AllocsPerOp {
				res.AllocsPerOp = prev.AllocsPerOp
			}
		}
		snap.Benchmarks[name] = res
	}
	if err := sc.Err(); err != nil {
		return Snapshot{}, fmt.Errorf("scanning go test output: %w", err)
	}
	return snap, nil
}

// parseBenchLine parses one `BenchmarkName-N  iters  X ns/op  Y B/op  Z
// allocs/op` line. Lines without the -benchmem columns (or non-benchmark
// output) report ok = false.
func parseBenchLine(line string) (string, Result, bool) {
	if !strings.HasPrefix(line, "Benchmark") {
		return "", Result{}, false
	}
	f := strings.Fields(line)
	// name iters ns "ns/op" b "B/op" allocs "allocs/op"
	if len(f) < 8 {
		return "", Result{}, false
	}
	var res Result
	var err error
	for i := 2; i+1 < len(f); i += 2 {
		switch f[i+1] {
		case "ns/op":
			res.NsPerOp, err = strconv.ParseFloat(f[i], 64)
		case "B/op":
			res.BytesPerOp, err = strconv.ParseInt(f[i], 10, 64)
		case "allocs/op":
			res.AllocsPerOp, err = strconv.ParseInt(f[i], 10, 64)
		}
		if err != nil {
			return "", Result{}, false
		}
	}
	name := f[0]
	// Strip the -GOMAXPROCS suffix (Benchmark benchmarks only gain one on
	// multi-core machines, so snapshots must normalize it away).
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	// Sub-benchmark names keep their /case suffix as-is.
	return name, res, true
}

func writeSnapshot(path string, snap Snapshot) error {
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding snapshot: %w", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing snapshot: %w", err)
	}
	return nil
}

func readSnapshot(path string) (Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Snapshot{}, fmt.Errorf("reading baseline: %w", err)
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return Snapshot{}, fmt.Errorf("parsing %s: %w", path, err)
	}
	if snap.Schema != schemaID {
		return Snapshot{}, fmt.Errorf("%s: unsupported schema %q (want %q)", path, snap.Schema, schemaID)
	}
	return snap, nil
}

// regression describes one benchmark that got worse than the baseline.
type regression struct {
	name, what string
}

// allocTolFrac is the fractional headroom on allocs/op and B/op before a
// count is a regression. Integer truncation keeps the micro-benchmark
// contract exact: 1% of anything under 100 allocs/op rounds to zero
// slack, so the 0-alloc hot path (and every small-count pipeline bench)
// still gates on strict equality. The long end-to-end benchmarks — whole
// link-seconds, the WLAN fleet — run tens to hundreds of milliseconds
// per op, so their totals pick up a few bytes of runtime background
// allocation (GC bookkeeping, goroutine stack churn) plus per-op
// integer-division rounding; the slack absorbs that jitter without
// letting a real allocation through (one extra alloc per op needs a
// baseline above 100 allocs/op to hide, and a leaked buffer exceeds 1%
// of a multi-KB footprint immediately).
const allocTolFrac = 0.01

// allocSlack returns the absolute headroom for a baseline count.
func allocSlack(base int64) int64 {
	return int64(float64(base) * allocTolFrac)
}

// compare returns the regressions of cur against base. Benchmarks present
// only in cur are ignored (new coverage); benchmarks present only in base
// fail, so a hot-path benchmark cannot silently disappear.
func compare(base, cur Snapshot, tol float64) []regression {
	var out []regression
	for _, name := range sortedNames(base.Benchmarks) {
		b := base.Benchmarks[name]
		c, ok := cur.Benchmarks[name]
		if !ok {
			out = append(out, regression{name, "missing from current run"})
			continue
		}
		if c.AllocsPerOp > b.AllocsPerOp+allocSlack(b.AllocsPerOp) {
			out = append(out, regression{name, fmt.Sprintf("allocs/op %d > baseline %d", c.AllocsPerOp, b.AllocsPerOp)})
		}
		if c.BytesPerOp > b.BytesPerOp+allocSlack(b.BytesPerOp) {
			out = append(out, regression{name, fmt.Sprintf("B/op %d > baseline %d", c.BytesPerOp, b.BytesPerOp)})
		}
		if limit := b.NsPerOp * (1 + tol); c.NsPerOp > limit {
			out = append(out, regression{name, fmt.Sprintf("ns/op %.1f > baseline %.1f +%.0f%%", c.NsPerOp, b.NsPerOp, tol*100)})
		}
	}
	return out
}

// report prints a per-benchmark comparison table with the regression
// verdicts inline.
func report(w *os.File, base, cur Snapshot, tol float64) {
	_, _ = fmt.Fprintf(w, "%-32s %14s %14s %8s %8s  %s\n", "benchmark", "base ns/op", "cur ns/op", "allocs", "vs base", "verdict")
	for _, name := range sortedNames(base.Benchmarks) {
		b := base.Benchmarks[name]
		c, ok := cur.Benchmarks[name]
		if !ok {
			_, _ = fmt.Fprintf(w, "%-32s %14.1f %14s %8s %8s  MISSING\n", name, b.NsPerOp, "-", "-", "-")
			continue
		}
		verdict := "ok"
		switch {
		case c.AllocsPerOp > b.AllocsPerOp+allocSlack(b.AllocsPerOp) ||
			c.BytesPerOp > b.BytesPerOp+allocSlack(b.BytesPerOp):
			verdict = "ALLOC REGRESSION"
		case c.NsPerOp > b.NsPerOp*(1+tol):
			verdict = "TIME REGRESSION"
		}
		ratio := 0.0
		if b.NsPerOp > 0 {
			ratio = c.NsPerOp / b.NsPerOp
		}
		_, _ = fmt.Fprintf(w, "%-32s %14.1f %14.1f %8d %7.2fx  %s\n", name, b.NsPerOp, c.NsPerOp, c.AllocsPerOp, ratio, verdict)
	}
}

// reportDelta prints the per-benchmark diff of two snapshots — the
// trajectory view of a baseline rollover. Ratios below 1.00x are
// speedups. Benchmarks present in only one snapshot are listed as added
// or removed rather than silently dropped, so coverage changes are as
// visible as cost changes.
func reportDelta(w *os.File, oldName, newName string, oldSnap, newSnap Snapshot, md bool) {
	names := map[string]bool{}
	for name := range oldSnap.Benchmarks {
		names[name] = true
	}
	for name := range newSnap.Benchmarks {
		names[name] = true
	}
	sorted := make([]string, 0, len(names))
	for name := range names {
		sorted = append(sorted, name)
	}
	sort.Strings(sorted)

	if md {
		_, _ = fmt.Fprintf(w, "### Benchmark delta: %s → %s\n\n", oldName, newName)
		_, _ = fmt.Fprintln(w, "| benchmark | old ns/op | new ns/op | ratio | old allocs | new allocs | old B/op | new B/op |")
		_, _ = fmt.Fprintln(w, "|---|---:|---:|---:|---:|---:|---:|---:|")
	} else {
		_, _ = fmt.Fprintf(w, "benchmark delta: %s -> %s\n", oldName, newName)
		_, _ = fmt.Fprintf(w, "%-34s %14s %14s %8s %16s %18s\n", "benchmark", "old ns/op", "new ns/op", "ratio", "allocs old->new", "B/op old->new")
	}
	for _, name := range sorted {
		o, haveOld := oldSnap.Benchmarks[name]
		n, haveNew := newSnap.Benchmarks[name]
		switch {
		case !haveOld:
			if md {
				_, _ = fmt.Fprintf(w, "| %s | - | %.1f | added | - | %d | - | %d |\n", name, n.NsPerOp, n.AllocsPerOp, n.BytesPerOp)
			} else {
				_, _ = fmt.Fprintf(w, "%-34s %14s %14.1f %8s %16s %18s\n", name, "-", n.NsPerOp, "added", fmt.Sprintf("- -> %d", n.AllocsPerOp), fmt.Sprintf("- -> %d", n.BytesPerOp))
			}
		case !haveNew:
			if md {
				_, _ = fmt.Fprintf(w, "| %s | %.1f | - | removed | %d | - | %d | - |\n", name, o.NsPerOp, o.AllocsPerOp, o.BytesPerOp)
			} else {
				_, _ = fmt.Fprintf(w, "%-34s %14.1f %14s %8s %16s %18s\n", name, o.NsPerOp, "-", "removed", fmt.Sprintf("%d -> -", o.AllocsPerOp), fmt.Sprintf("%d -> -", o.BytesPerOp))
			}
		default:
			ratio := 0.0
			if o.NsPerOp > 0 {
				ratio = n.NsPerOp / o.NsPerOp
			}
			if md {
				_, _ = fmt.Fprintf(w, "| %s | %.1f | %.1f | %.2fx | %d | %d | %d | %d |\n",
					name, o.NsPerOp, n.NsPerOp, ratio, o.AllocsPerOp, n.AllocsPerOp, o.BytesPerOp, n.BytesPerOp)
			} else {
				_, _ = fmt.Fprintf(w, "%-34s %14.1f %14.1f %7.2fx %16s %18s\n",
					name, o.NsPerOp, n.NsPerOp, ratio,
					fmt.Sprintf("%d -> %d", o.AllocsPerOp, n.AllocsPerOp),
					fmt.Sprintf("%d -> %d", o.BytesPerOp, n.BytesPerOp))
			}
		}
	}
}

func sortedNames(m map[string]Result) []string {
	out := make([]string, 0, len(m))
	for name := range m {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
