// Package experiments regenerates every table and figure of the paper's
// evaluation. Each experiment is a pure function of a Config (seed +
// scale): it builds the workload, runs the relevant modules, and returns a
// Result with named data series and a rendered text table. cmd/figures
// prints them; the package tests assert the qualitative shapes the paper
// reports (orderings, crossovers, monotonicity).
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"mobiwlan/internal/obs"
	"mobiwlan/internal/parallel"
	"mobiwlan/internal/stats"
)

// Config controls an experiment run.
type Config struct {
	// Seed drives all randomness.
	Seed uint64
	// Scale multiplies repetition counts and durations; 1.0 reproduces
	// the published defaults, smaller values give quick smoke runs.
	Scale float64
	// Jobs bounds the worker pool used for trial fan-out; 0 (the zero
	// value) selects parallel.DefaultJobs(), one worker per GOMAXPROCS.
	// Results are byte-identical for every value of Jobs: all per-trial
	// randomness is derived by splitting the root RNG at the trial index,
	// never by sharing a sequentially-advanced stream across trials.
	Jobs int
	// Obs, when non-nil, collects telemetry from the instrumented
	// experiments (classifier metrics, MAC counters, trial traces).
	// Metric totals and exported dumps are byte-identical for every
	// value of Jobs: counters and histograms commute, and trial tracers
	// are keyed by trial index and merged in key order (DESIGN.md §9).
	Obs *obs.Scope
}

// Trial-key bases for the instrumented experiments. cmd/figures runs
// independent experiment IDs concurrently against one shared obs.Scope,
// and per-trial tracers are single-goroutine by contract, so every
// experiment derives its tracer keys from its own base to keep the key
// space globally disjoint (DESIGN.md §9).
const (
	trialsTable1  = 1_000_000 // + mode*10_000 + trial
	trialsFig9a   = 2_000_000 // + link*2 + {0: stock, 1: motion-aware}
	trialsFig13   = 3_000_000 // + walk*2 + {0: default, 1: motion-aware}
	trialsFig7b   = 4_000_000 // + case*100_000 + trial
	trialsFig11b  = 5_000_000 // + link*2 + {0: fixed, 1: adaptive}
	trialsContend = 7_000_000 // + client (6M is the sim fleet default base)
)

// jobs returns the effective worker count for trial fan-out.
func (c Config) jobs() int {
	if c.Jobs > 0 {
		return c.Jobs
	}
	return parallel.DefaultJobs()
}

// scaleInt scales a repetition count, keeping at least min.
func (c Config) scaleInt(n, min int) int {
	v := int(float64(n) * c.scale())
	if v < min {
		v = min
	}
	return v
}

// scaleDur scales a duration, keeping at least min seconds.
func (c Config) scaleDur(d, min float64) float64 {
	v := d * c.scale()
	if v < min {
		v = min
	}
	return v
}

func (c Config) scale() float64 {
	if c.Scale <= 0 {
		return 1
	}
	return c.Scale
}

// rng returns the experiment's root RNG.
func (c Config) rng(label uint64) *stats.RNG {
	return stats.NewRNG(c.Seed).Split(label)
}

// Result is one regenerated table or figure.
type Result struct {
	// ID is the paper's identifier, e.g. "fig2b" or "table1".
	ID string
	// Title describes the content.
	Title string
	// XLabel names the x axis of the series.
	XLabel string
	// Series holds the figure's named curves.
	Series []stats.Series
	// Text is the rendered table (always present).
	Text string
	// Notes records interpretation decisions and the headline numbers.
	Notes []string
}

// Runner is an experiment entry point.
type Runner func(Config) Result

// registry of all experiments by ID.
var registry = map[string]Runner{}
var registryOrder []string

func register(id string, r Runner) {
	if _, dup := registry[id]; dup {
		panic("experiments: duplicate id " + id)
	}
	registry[id] = r
	registryOrder = append(registryOrder, id)
}

// IDs returns all experiment IDs in registration (paper) order.
func IDs() []string {
	out := make([]string, len(registryOrder))
	copy(out, registryOrder)
	return out
}

// Get returns the experiment with the given ID.
func Get(id string) (Runner, bool) {
	r, ok := registry[id]
	return r, ok
}

// renderSeries formats the series block of a result.
func renderSeries(title, xLabel string, series []stats.Series) string {
	return stats.RenderTable(title, xLabel, series)
}

// renderKV renders simple name/value rows.
func renderKV(title string, rows [][2]string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", title)
	width := 0
	for _, r := range rows {
		if len(r[0]) > width {
			width = len(r[0])
		}
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "%-*s  %s\n", width, r[0], r[1])
	}
	return b.String()
}

// sortedKeys returns a map's keys in ascending order, so notes built
// from a map iterate deterministically.
func sortedKeys[K ~string, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}
