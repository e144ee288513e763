package obs

import (
	"flag"
	"fmt"
	"io"
	"os"
)

// traceRingCap bounds each trial's in-memory event ring when -trace is
// set; once a trial exceeds it the oldest events are overwritten and the
// drop count is reported on stderr.
const traceRingCap = 4096

// Flags wires the shared telemetry flags (docs/OPERATIONS.md) into a
// command: -metrics, -metrics-json, -metrics-addr and -trace. Scope
// returns nil until one of them is set, so un-instrumented runs pay
// nothing; all dumps go to stderr or files, never stdout. A failed
// listener or dump prints "<prog>: ..." on stderr and exits 1.
type Flags struct {
	prog        string
	metrics     *bool
	metricsJSON *string
	metricsAddr *string
	trace       *string

	scope *Scope
}

// AddFlags registers the telemetry flags on fs for the command prog.
// Call before parsing.
func AddFlags(fs *flag.FlagSet, prog string) *Flags {
	return &Flags{
		prog:        prog,
		metrics:     fs.Bool("metrics", false, "dump the metric registry as text to stderr at exit"),
		metricsJSON: fs.String("metrics-json", "", "write the metric registry as JSON to this file at exit"),
		metricsAddr: fs.String("metrics-addr", "", "serve /metrics and /debug/pprof/ on this address during the run"),
		trace:       fs.String("trace", "", "write the per-trial event trace as JSONL to this file at exit"),
	}
}

// Scope returns the run's telemetry scope, creating it (and the optional
// metrics listener) on first use; nil when no telemetry flag was given.
func (f *Flags) Scope() *Scope {
	if f.scope != nil {
		return f.scope
	}
	if !*f.metrics && *f.metricsJSON == "" && *f.metricsAddr == "" && *f.trace == "" {
		return nil
	}
	ringCap := 0
	if *f.trace != "" {
		ringCap = traceRingCap
	}
	f.scope = NewScope(ringCap)
	if *f.metricsAddr != "" {
		addr, _, err := Serve(*f.metricsAddr, f.scope.Reg)
		if err != nil {
			f.fail("metrics listener", err)
		}
		fmt.Fprintf(os.Stderr, "%s: serving metrics on http://%s/metrics\n", f.prog, addr)
	}
	return f.scope
}

// Finish writes the end-of-run dumps. Call once after the command's
// simulation completes; a no-op when no telemetry flag was given.
func (f *Flags) Finish() {
	if f.scope == nil {
		return
	}
	if *f.metrics {
		if err := f.scope.Reg.WriteText(os.Stderr); err != nil {
			f.fail("metrics dump", err)
		}
	}
	if *f.metricsJSON != "" {
		if err := writeToFile(*f.metricsJSON, f.scope.Reg.WriteJSON); err != nil {
			f.fail("metrics dump", err)
		}
	}
	if *f.trace != "" {
		if err := writeToFile(*f.trace, f.scope.Trials.WriteJSONL); err != nil {
			f.fail("trace dump", err)
		}
		if d := f.scope.Trials.Dropped(); d > 0 {
			fmt.Fprintf(os.Stderr,
				"%s: trace rings dropped %d events (oldest are overwritten past %d events per trial)\n",
				f.prog, d, traceRingCap)
		}
	}
}

// fail reports a telemetry failure and exits 1.
func (f *Flags) fail(what string, err error) {
	fmt.Fprintf(os.Stderr, "%s: %s: %v\n", f.prog, what, err)
	os.Exit(1)
}

// writeToFile creates path and streams write into it.
func writeToFile(path string, write func(io.Writer) error) error {
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(file); err != nil {
		_ = file.Close()
		return err
	}
	return file.Close()
}
