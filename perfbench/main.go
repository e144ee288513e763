// Command perfbench is the repository's end-to-end and per-layer
// benchmark. One invocation runs one workload in one process:
//
//	perfbench --workload fleet-mixed --seed 1 --seconds 30 --trace 0
//
// Workloads are fleet-mixed (sim.RunWLANFleet on parallel.RunTrials),
// hall-contended (sim.RunScenarioFleet through the shared medium) and
// ctl-roam (a ctlproto controller driven by loadgen schedules over
// loopback). With --trace 0 the program itself runs untraced and the
// result carries the end-to-end metrics; with --trace 1 the benchmark's
// own driver replays the same inputs with a span around every call into a
// layer and the result carries the per-layer metrics. Every run checks
// the program's outputs. Diagnostic lines (host, digests, sample counts,
// failed checks) precede the result, which is the last line of standard
// output: one JSON object with the keys correct, attempted, failed and
// metrics. The exit code is 0 only when every check passed.
//
// README.md next to this file explains the workloads, metrics and
// predictions; BENCHMARK.json at the repository root declares them.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"

	"mobiwlan/internal/fastmath"
	"mobiwlan/internal/stats"
)

//mobilint:stdout the benchmark result is the program's output
func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// workload is one benchmark input mix with its untraced and traced runs.
type workload struct {
	name   string
	e2e    func(p params) (outcome, error)
	traced func(p params) (outcome, error)
}

// params are one invocation's settings.
type params struct {
	seed    uint64
	seconds float64
	// log receives the diagnostic lines printed before the result.
	log io.Writer
}

// workloads lists the benchmark's workloads at their benchmark sizes.
func workloads() []workload {
	return []workload{
		fleetMixed(fleetMixedSize),
		hallContended(0),
		ctlRoam(ctlRoamSize),
	}
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet maps metric names to values.
type metricSet map[string]metric

func (m metricSet) put(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// outcome is a run's metrics and its operation counts.
type outcome struct {
	metrics   metricSet
	attempted int
	failed    int
}

func newOutcome() outcome { return outcome{metrics: metricSet{}} }

// fail counts and logs failed checks.
func (o *outcome) fail(log io.Writer, bad []string) {
	for _, b := range bad {
		o.failed++
		_, _ = fmt.Fprintln(log, "check failed:", b)
	}
}

// result is the last line of standard output.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// run is main with its streams and exit code exposed for tests.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: fleet-mixed, hall-contended or ctl-roam")
	seed := fs.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 30, "measuring time in seconds (at least one round always runs)")
	trace := fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		_, _ = fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	var w *workload
	all := workloads()
	names := make([]string, len(all))
	for i := range all {
		names[i] = all[i].name
		if all[i].name == *name {
			w = &all[i]
		}
	}
	if w == nil {
		_, _ = fmt.Fprintf(stderr, "perfbench: unknown --workload %q (want one of %s)\n", *name, strings.Join(names, ", "))
		return 2
	}
	return runWorkload(*w, params{seed: *seed, seconds: *seconds, log: stdout}, *trace == 1, stdout, stderr)
}

// runWorkload prints the host block, runs the workload and prints the
// result line.
func runWorkload(w workload, p params, traced bool, stdout, stderr io.Writer) int {
	host, err := json.Marshal(hostInfo())
	if err != nil {
		_, _ = fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	_, _ = fmt.Fprintf(stdout, "host %s\n", host)
	_, _ = fmt.Fprintf(stdout, "workload %s seed=%d seconds=%g trace=%t\n", w.name, p.seed, p.seconds, traced)
	fn := w.e2e
	if traced {
		fn = w.traced
	}
	out, err := fn(p)
	if err != nil {
		_, _ = fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.metrics,
	})
	if err != nil {
		_, _ = fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if _, err := fmt.Fprintf(stdout, "%s\n", line); err != nil {
		_, _ = fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if out.failed > 0 {
		return 1
	}
	return 0
}

// hostInfo is the host block printed with every result.
func hostInfo() map[string]any {
	model, avx2 := cpuInfo()
	return map[string]any{
		"goos":         runtime.GOOS,
		"goarch":       runtime.GOARCH,
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"num_cpu":      runtime.NumCPU(),
		"go_version":   runtime.Version(),
		"cpu_model":    model,
		"avx2":         avx2,
		"sincos_exact": fastmath.SincosExact,
	}
}

// cpuInfo reads the CPU model and the AVX2 flag from /proc/cpuinfo;
// "unknown" and false where it is not available.
func cpuInfo() (string, bool) {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown", false
	}
	defer f.Close()
	model, avx2 := "unknown", false
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		key, val, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		switch strings.TrimSpace(key) {
		case "model name":
			model = strings.TrimSpace(val)
		case "flags":
			for _, fl := range strings.Fields(val) {
				avx2 = avx2 || fl == "avx2"
			}
		}
		if model != "unknown" && avx2 {
			break
		}
	}
	return model, avx2
}

// subSeed is round k's input seed: the seed itself for the first round,
// then seed-split children, so a run covers several inputs and the same
// seed always gives the same sequence.
func subSeed(seed uint64, k int) uint64 {
	if k == 0 {
		return seed
	}
	return stats.NewRNG(seed).Split(uint64(k)).Uint64()
}

func secondsSince(start int64) float64 { return float64(nanotime()-start) / 1e9 }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the median of an even count is the mean of the two
// middle values).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// putLayers writes the traced run's per-layer metrics: the spans, the
// tracing overhead, the sim layers' counts in lc, the controller's counts
// and untraced round latencies in ctl, and the parallel efficiency. Every workload writes every metric;
// a layer it never calls reads 0.
func putLayers(m metricSet, tr *tracer, overhead float64, lc layerCounts, ctl ctlPass, efficiency float64) {
	tr.putSpans(m, spanCtlAnswer)
	m.put("trace.overhead_frac", overhead, "fraction")
	m.put("channel.cache.hit_ratio", ratio(float64(lc.cache.Hits), float64(lc.cache.Hits+lc.cache.Misses)), "fraction")
	m.put("mac.mpdus_per_frame", ratio(float64(lc.mpdu.Offered), float64(lc.frames)), "MPDU/frame")
	m.put("mac.delivered_frac", ratio(float64(lc.mpdu.Delivered), float64(lc.mpdu.Offered)), "fraction")
	m.put("medium.grant_ratio", ratio(float64(lc.granted), float64(lc.reserves)), "fraction")
	m.put("medium.collision_frac", ratio(float64(lc.mpdu.CollisionLost), float64(lc.mpdu.Offered)), "fraction")
	m.put("medium.obss_frac", ratio(float64(lc.mpdu.OBSSLost), float64(lc.mpdu.Offered)), "fraction")
	m.put("parallel.efficiency", efficiency, "fraction")
	m.put("ctlproto.drop_frac", ratio(float64(ctl.dropped+ctl.outDropped), float64(ctl.received)), "fraction")
	m.put("ctlproto.measure.fanout_mean", ratio(ctl.fanoutSum, ctl.fanoutN), "APs")
	m.put("ctlproto.batch.entries_mean", ratio(ctl.entriesSum, ctl.entriesN), "entries")
	p50, p99 := 0.0, 0.0
	if len(ctl.roundMs) > 0 {
		p50, p99 = quantile(ctl.roundMs, 0.5), quantile(ctl.roundMs, 0.99)
	}
	m.put("ctlproto.round_p50_ms", p50, "ms")
	m.put("ctlproto.round_p99_ms", p99, "ms")
}

// runtimeNames are the runtime/metrics samples behind runtime.*.
var runtimeNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/tiny/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

// runtimeSample is one reading of runtimeNames.
type runtimeSample struct {
	mallocs, gcCPU, totalCPU float64
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return runtimeSample{
		mallocs:  val(s[0].Value) + val(s[1].Value),
		gcCPU:    val(s[2].Value),
		totalCPU: val(s[3].Value),
	}
}

// runtimeDelta accumulates runtime deltas over measured sections.
type runtimeDelta struct{ runtimeSample }

func (d *runtimeDelta) add(before, after runtimeSample) {
	d.mallocs += after.mallocs - before.mallocs
	d.gcCPU += after.gcCPU - before.gcCPU
	d.totalCPU += after.totalCPU - before.totalCPU
}

// put writes the runtime.* metrics for clientSimS simulated
// client-seconds and reports mobility reports.
func (d *runtimeDelta) put(m metricSet, clientSimS, reports float64) {
	m.put("runtime.mallocs_per_client_s", ratio(d.mallocs, clientSimS), "allocs/client-s")
	m.put("runtime.mallocs_per_report", ratio(d.mallocs, reports), "allocs/report")
	m.put("runtime.gc_cpu_frac", ratio(d.gcCPU, d.totalCPU), "fraction")
}
