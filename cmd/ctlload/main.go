// Command ctlload is the deterministic control-plane load generator:
// it replays a seed-split fleet of simulated APs (internal/loadgen)
// against a sharded ctlproto controller and reports what happened.
//
// By default it embeds its own controller, so one invocation is a
// closed experiment; -addr points it at an external controller instead.
// Everything on stdout is a pure function of the workload flags —
// schedule hash, traffic counters, decision counts, decision-latency
// percentiles — and is byte-identical at any -jobs, which CI's smoke
// step pins against a golden file. Wall-clock facts (elapsed time,
// reports/sec, allocations) go to stderr.
//
// Examples:
//
//	ctlload -aps 1000 -clients 2 -reports 25        # the soak fleet
//	ctlload -hash-only                              # schedule fingerprint
//	ctlload -dump-schedule | head                   # the wire schedule
//
// See docs/OPERATIONS.md for the full recipe, including the 10k-AP run.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"mobiwlan/internal/ctlproto"
	"mobiwlan/internal/loadgen"
	"mobiwlan/internal/obs"
	"mobiwlan/internal/transport"
)

//mobilint:stdout the run summary is the byte-identical-stdout experiment output
func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its streams and exit code exposed for testing.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ctlload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Uint64("seed", 1, "root RNG seed (split per AP, then per client)")
	aps := fs.Int("aps", 64, "simulated APs (one session each)")
	clients := fs.Int("clients", 2, "clients per AP")
	reports := fs.Int("reports", 25, "reports per client")
	period := fs.Float64("period", 1, "telemetry burst period in sim seconds")
	burst := fs.Int("burst", 4, "reports per telemetry burst")
	roamEvery := fs.Int("roam-every", 12, "every Nth report of a client is macro-away (0 = no triggers)")
	minInterval := fs.Float64("min-interval", 1, "controller roam throttle in sim seconds")
	batch := fs.Int("batch", 64, "most reports per report-batch frame, 1-512 (1 = one report per frame)")
	snapshotEvery := fs.Int("snapshot-every", 0, "per-client snapshot interval in batches (0 = default)")
	jobs := fs.Int("jobs", 4, "concurrent sender workers (results are identical at any value)")
	shards := fs.Int("shards", 8, "controller report-processing shards (embedded controller only)")
	queueDepth := fs.Int("queue-depth", 16384, "per-shard inbound queue depth")
	sendQueueDepth := fs.Int("send-queue-depth", 256, "per-session outbound queue depth")
	policy := fs.String("policy", "drop", "overflow policy: drop or disconnect")
	fanout := fs.Int("fanout", 8, "measure-request fan-out per round")
	addr := fs.String("addr", "", "external controller address (default: embed one)")
	rate := fs.Float64("rate", 0, "replay speed in sim seconds per wall second (0 = as fast as possible)")
	timeoutS := fs.Float64("timeout", 30, "directive wait in wall seconds before a round counts as timed out")
	hashOnly := fs.Bool("hash-only", false, "print the fleet schedule hash and exit")
	dumpSchedule := fs.Bool("dump-schedule", false, "print the full wire schedule and exit")
	metrics := fs.Bool("metrics", false, "dump the controller metric registry as text to stderr at exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	cfg := loadgen.Config{
		Seed:             *seed,
		APs:              *aps,
		ClientsPerAP:     *clients,
		ReportsPerClient: *reports,
		Telemetry:        transport.Telemetry{Period: *period, Burst: *burst},
		RoamEvery:        *roamEvery,
		MinInterval:      *minInterval,
		BatchSize:        *batch,
		SnapshotEvery:    *snapshotEvery,
	}
	if err := cfg.Validate(); err != nil {
		_, _ = fmt.Fprintln(stderr, "ctlload:", err)
		return 2
	}

	if *hashOnly {
		printHash(stdout, cfg)
		return 0
	}
	if *dumpSchedule {
		if err := loadgen.WriteSchedule(stdout, cfg); err != nil {
			_, _ = fmt.Fprintln(stderr, "ctlload:", err)
			return 1
		}
		return 0
	}

	var pol ctlproto.OverflowPolicy
	switch *policy {
	case "drop":
		pol = ctlproto.PolicyDrop
	case "disconnect":
		pol = ctlproto.PolicyDisconnect
	default:
		_, _ = fmt.Fprintf(stderr, "ctlload: unknown -policy %q (want drop or disconnect)\n", *policy)
		return 2
	}

	// Embedded controller, unless -addr points at an external one.
	reg := obs.NewRegistry()
	var srv *ctlproto.Server
	target := *addr
	if target == "" {
		coord := ctlproto.NewCoordinator()
		coord.MinInterval = cfg.MinInterval
		coord.MaxFanout = *fanout
		coord.Met = ctlproto.NewMetrics(reg, nil)
		var err error
		srv, err = ctlproto.NewServerConfig("127.0.0.1:0", coord, ctlproto.Config{
			Shards:         *shards,
			QueueDepth:     *queueDepth,
			SendQueueDepth: *sendQueueDepth,
			Policy:         pol,
		})
		if err != nil {
			_, _ = fmt.Fprintln(stderr, "ctlload:", err)
			return 1
		}
		srv.SetMetrics(coord.Met)
		target = srv.Addr()
	}

	eng, err := loadgen.New(cfg, target)
	if err != nil {
		_, _ = fmt.Fprintln(stderr, "ctlload:", err)
		return 1
	}
	if err := eng.Connect(); err != nil {
		_, _ = fmt.Fprintln(stderr, "ctlload:", err)
		return 1
	}
	if srv != nil && !waitRegistered(srv, cfg.APs) {
		_, _ = fmt.Fprintf(stderr, "ctlload: only %d/%d sessions registered\n", len(srv.APs()), cfg.APs)
		return 1
	}

	hooks := loadgen.Hooks{
		Timeout: func(d float64) <-chan struct{} {
			ch := make(chan struct{})
			time.AfterFunc(time.Duration(d*float64(time.Second)), func() { close(ch) })
			return ch
		},
		TimeoutS: *timeoutS,
	}
	if *rate > 0 {
		start := time.Now()
		r := *rate
		hooks.Pace = func(simTime float64) {
			wall := time.Duration(simTime / r * float64(time.Second))
			if ahead := wall - time.Since(start); ahead > 0 {
				time.Sleep(ahead)
			}
		}
	}

	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	eng.Stream(*jobs, hooks)
	elapsed := time.Since(start)
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	stats := eng.Stats()

	eng.Close()
	if srv != nil {
		if err := srv.Close(); err != nil {
			_, _ = fmt.Fprintln(stderr, "ctlload:", err)
			return 1
		}
	}

	printResult(stdout, cfg, stats, srv, reg)
	printWall(stderr, stats, elapsed, ms1.Mallocs-ms0.Mallocs)
	if *metrics {
		if err := reg.WriteText(stderr); err != nil {
			_, _ = fmt.Fprintln(stderr, "ctlload:", err)
		}
	}

	if stats.Errors != 0 || stats.Timeouts != 0 {
		_, _ = fmt.Fprintf(stderr, "ctlload: degraded run: %d errors, %d timeouts\n", stats.Errors, stats.Timeouts)
		return 1
	}
	return 0
}

// waitRegistered polls until the embedded controller sees all sessions.
func waitRegistered(srv *ctlproto.Server, want int) bool {
	deadline := time.Now().Add(30 * time.Second)
	for len(srv.APs()) < want {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
	return true
}

// printHash emits the schedule fingerprint.
//
//mobilint:stdout the fleet hash is the deterministic experiment output
func printHash(w io.Writer, cfg loadgen.Config) {
	_, _ = fmt.Fprintf(w, "fleet_hash=%#x\n", loadgen.HashFleet(cfg))
}

// printResult emits the deterministic run summary: schedule hash,
// traffic counters, conservation, and decision-latency percentiles.
// Every value is a pure function of the workload flags (latencies are
// sim-time aggregates, not wall measurements), so runs golden-diff.
//
//mobilint:stdout the run summary is the byte-identical-stdout experiment output
func printResult(w io.Writer, cfg loadgen.Config, stats loadgen.Stats, srv *ctlproto.Server, reg *obs.Registry) {
	printHash(w, cfg)
	_, _ = fmt.Fprintf(w, "reports=%d frames=%d triggers=%d directives=%d answered=%d timeouts=%d errors=%d\n",
		stats.ReportsSent, stats.FramesSent, stats.Triggers, stats.DirectivesReceived,
		stats.RequestsAnswered, stats.Timeouts, stats.Errors)
	if srv == nil {
		return // external controller: its counters are not ours to print
	}
	recv := reg.Counter("ctlproto.shard.received").Value()
	proc := reg.Counter("ctlproto.shard.processed").Value()
	drop := reg.Counter("ctlproto.shard.dropped").Value()
	outDrop := reg.Counter("ctlproto.out.dropped").Value()
	_, _ = fmt.Fprintf(w, "conservation received=%d processed=%d dropped=%d out_dropped=%d\n",
		recv, proc, drop, outDrop)
	lat := reg.Histogram("ctlproto.decision-latency_s", 1)
	_, _ = fmt.Fprintf(w, "decisions=%d roamed=%d lat_p50_us=%d lat_p90_us=%d lat_p99_us=%d\n",
		lat.Count(), reg.Counter("ctlproto.roam.directives").Value(),
		quantUS(lat, 0.50), quantUS(lat, 0.90), quantUS(lat, 0.99))
}

// quantUS renders a latency quantile in whole microseconds.
func quantUS(h *obs.Histogram, q float64) int64 {
	return int64(h.Quantile(q)*1e6 + 0.5)
}

// printWall emits the wall-clock facts: not deterministic, stderr only.
func printWall(w io.Writer, stats loadgen.Stats, elapsed time.Duration, mallocs uint64) {
	secs := elapsed.Seconds()
	rate := 0.0
	if secs > 0 {
		rate = float64(stats.ReportsSent) / secs
	}
	perReport := 0.0
	if stats.ReportsSent > 0 {
		perReport = float64(mallocs) / float64(stats.ReportsSent)
	}
	_, _ = fmt.Fprintf(w, "ctlload: %.3fs wall, %.0f reports/s, %.1f allocs/report (process-wide)\n",
		secs, rate, perReport)
}
