// Command tracegen captures PHY-layer traces (CSI, RSSI, distance) from
// the channel simulator into JSON Lines, for external analysis.
//
// Usage:
//
//	tracegen -mode macro -duration 30 -interval 0.05 -seed 7 -o trace.jsonl
//
// With -summarize FILE it instead reads a trace and prints summary
// statistics (the round-trip check for recorded traces).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"mobiwlan/internal/channel"
	"mobiwlan/internal/csi"
	"mobiwlan/internal/mobility"
	"mobiwlan/internal/stats"
	"mobiwlan/internal/traceio"
)

//mobilint:stdout tracegen streams the generated trace to stdout by default
func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its streams and exit code exposed for testing.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		mode      = fs.String("mode", "macro", "scenario mode: static|env|micro|macro|toward|away|circle")
		duration  = fs.Float64("duration", 30, "trace length in seconds")
		interval  = fs.Float64("interval", 0.05, "sampling interval in seconds")
		seed      = fs.Uint64("seed", 1, "RNG seed")
		out       = fs.String("o", "-", "output file ('-' = stdout)")
		summarize = fs.String("summarize", "", "read and summarize an existing trace instead")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *summarize != "" {
		if err := summary(stdout, *summarize); err != nil {
			_, _ = fmt.Fprintln(stderr, "tracegen:", err)
			return 1
		}
		return 0
	}

	// Capture steps time by the interval, so a zero, negative or
	// non-finite one would never reach the end of the trace.
	if !(*interval > 0) || math.IsInf(*interval, 1) {
		_, _ = fmt.Fprintf(stderr, "tracegen: -interval must be positive and finite, got %v\n", *interval)
		return 2
	}

	rng := stats.NewRNG(*seed)
	scen, err := mobility.NamedScenario(*mode, *duration, rng)
	if err != nil {
		_, _ = fmt.Fprintln(stderr, "tracegen:", err)
		return 2
	}

	ch := channel.New(channel.DefaultConfig(), scen, rng.Split(99))
	recs := traceio.Capture(ch, *interval, *duration)

	w := stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			_, _ = fmt.Fprintln(stderr, "tracegen:", err)
			return 1
		}
		defer f.Close()
		w = f
	}
	if err := traceio.Write(w, recs); err != nil {
		_, _ = fmt.Fprintln(stderr, "tracegen:", err)
		return 1
	}
	_, _ = fmt.Fprintf(stderr, "tracegen: wrote %d records (%.0f s at %.0f ms)\n",
		len(recs), *duration, *interval*1000)
	return 0
}

// summary writes the digest of the trace at path to w.
func summary(w io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	recs, err := traceio.Read(f)
	if err != nil {
		return err
	}
	if len(recs) == 0 {
		return fmt.Errorf("empty trace")
	}
	var times, rssi, dist, sims []float64
	var prev *csi.Matrix
	var ws csi.Workspace
	for _, r := range recs {
		times = append(times, r.Time)
		rssi = append(rssi, r.RSSIdBm)
		dist = append(dist, r.Distance)
		m, err := r.Matrix()
		if err != nil {
			return err
		}
		if prev != nil {
			sims = append(sims, ws.Similarity(prev, m))
		}
		prev = m
	}
	var b strings.Builder
	fmt.Fprintf(&b, "records:            %d over %.1f s\n", len(recs), stats.Max(times)-stats.Min(times))
	fmt.Fprintf(&b, "RSSI:               median %.1f dBm (min %.1f, max %.1f)\n",
		stats.Median(rssi), stats.Min(rssi), stats.Max(rssi))
	fmt.Fprintf(&b, "distance:           median %.1f m (min %.1f, max %.1f)\n",
		stats.Median(dist), stats.Min(dist), stats.Max(dist))
	fmt.Fprintf(&b, "CSI similarity:     median %.3f (5th pct %.3f)\n",
		stats.Median(sims), stats.Percentile(sims, 5))
	_, err = io.WriteString(w, b.String())
	return err
}
