// Command figures regenerates the paper's tables and figures.
//
// Usage:
//
//	figures [-id fig2b,table1|all] [-seed N] [-scale S] [-jobs N] [-csv DIR] [-list]
//	        [-metrics] [-metrics-json FILE] [-metrics-addr ADDR] [-trace FILE]
//
// Each experiment prints its rendered table and notes to stdout; -csv
// additionally writes one CSV file per figure series for plotting.
//
// -jobs N bounds the worker pool: trials within an experiment fan out
// across up to N workers, and independent experiment IDs run concurrently
// under the same bound. Output is deterministic — the experiments derive
// all per-trial randomness by splitting the root RNG at the trial index,
// so stdout is byte-identical for every value of N (per-experiment timing
// goes to stderr, which is the only run-dependent output).
//
// Telemetry (docs/OPERATIONS.md): -metrics dumps the metric registry as
// text to stderr at exit, -metrics-json writes the same registry as JSON
// to a file, -metrics-addr serves /metrics, /metrics.json and
// /debug/pprof/ over HTTP while the run is in flight, and -trace writes
// the merged per-trial event trace as JSONL. All telemetry goes to stderr
// or files, never stdout, and every dump is byte-identical for any -jobs
// value (DESIGN.md §9).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"mobiwlan/internal/experiments"
	"mobiwlan/internal/obs"
	"mobiwlan/internal/parallel"
)

//mobilint:stdout figures prints the generated artifact paths for the paper build
func main() {
	var (
		idFlag   = flag.String("id", "all", "comma-separated experiment IDs, or 'all'")
		seed     = flag.Uint64("seed", 2014, "root RNG seed")
		scale    = flag.Float64("scale", 1, "workload scale (1 = published defaults)")
		jobs     = flag.Int("jobs", parallel.DefaultJobs(), "max concurrent workers (trials and experiments)")
		csvDir   = flag.String("csv", "", "directory to write per-figure CSV series into")
		listOnly = flag.Bool("list", false, "list experiment IDs and exit")
		ofl      = obs.AddFlags(flag.CommandLine, "figures")
	)
	flag.Parse()

	if *listOnly {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}

	var ids []string
	if *idFlag == "all" {
		ids = experiments.IDs()
	} else {
		for _, id := range strings.Split(*idFlag, ",") {
			ids = append(ids, strings.TrimSpace(id))
		}
	}

	runners := make([]experiments.Runner, len(ids))
	for i, id := range ids {
		runner, ok := experiments.Get(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "figures: unknown experiment %q (try -list)\n", id)
			os.Exit(2)
		}
		runners[i] = runner
	}

	// One telemetry scope is shared by every experiment of the run.
	cfg := experiments.Config{Seed: *seed, Scale: *scale, Jobs: *jobs, Obs: ofl.Scope()}

	// Independent experiment IDs run concurrently under the same worker
	// bound; results are collected and printed in request order so stdout
	// is identical to a serial run.
	type timed struct {
		res     experiments.Result
		elapsed float64
	}
	results := parallel.RunTrials(len(ids), *jobs, func(i int) timed {
		start := time.Now()
		res := runners[i](cfg)
		return timed{res: res, elapsed: time.Since(start).Seconds()}
	})

	for _, tr := range results {
		fmt.Println(tr.res.Text)
		for _, n := range tr.res.Notes {
			fmt.Printf("note: %s\n", n)
		}
		fmt.Println()
		fmt.Fprintf(os.Stderr, "(%s regenerated in %.1fs)\n", tr.res.ID, tr.elapsed)
		if *csvDir != "" && len(tr.res.Series) > 0 {
			if err := writeCSV(*csvDir, tr.res); err != nil {
				fmt.Fprintf(os.Stderr, "figures: %v\n", err)
				os.Exit(1)
			}
		}
	}
	ofl.Finish()
}

func writeCSV(dir string, res experiments.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "series,%s,value\n", res.XLabel)
	for _, s := range res.Series {
		for _, p := range s.Points {
			fmt.Fprintf(&b, "%s,%g,%g\n", s.Name, p.X, p.Y)
		}
	}
	return os.WriteFile(filepath.Join(dir, res.ID+".csv"), []byte(b.String()), 0o644)
}
