package experiments

import (
	"strings"
	"testing"

	"mobiwlan/internal/obs"
)

// dumpTelemetry renders a scope's three deterministic exports: the text
// metrics dump, the JSON metrics dump, and the merged JSONL trace.
func dumpTelemetry(t *testing.T, scope *obs.Scope) (text, jsonDump, trace string) {
	t.Helper()
	var tb, jb, rb strings.Builder
	if err := scope.Reg.WriteText(&tb); err != nil {
		t.Fatal(err)
	}
	if err := scope.Reg.WriteJSON(&jb); err != nil {
		t.Fatal(err)
	}
	if err := scope.Trials.WriteJSONL(&rb); err != nil {
		t.Fatal(err)
	}
	return tb.String(), jb.String(), rb.String()
}

// TestTelemetryJobsDeterminism is the golden regression for DESIGN.md §12:
// with telemetry attached, an instrumented experiment must produce
// byte-identical metric dumps (text and JSON), byte-identical merged
// trial traces, and byte-identical result text for jobs=1 vs jobs=4.
// Counters and histograms commute (fixed-point sums), and trial tracers
// are keyed by trial index and merged in key order, so any divergence
// here means a telemetry write leaked ordering or shared state.
func TestTelemetryJobsDeterminism(t *testing.T) {
	// table1 exercises the instrumented classification pipeline (mode
	// transitions, similarity and latency histograms, per-trial traces);
	// fig7b adds the roaming runner's handoff/scan telemetry; obss2ap
	// steps two contended clients in parallel, one per contention domain.
	ids := []string{"table1", "fig7b", "obss2ap"}
	if testing.Short() {
		ids = ids[:1]
	}
	for _, id := range ids {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			runner, ok := Get(id)
			if !ok {
				t.Fatalf("unknown experiment %q", id)
			}
			run := func(jobs int) (Result, string, string, string) {
				scope := obs.NewScope(256)
				res := runner(Config{Seed: 99, Scale: 0.2, Jobs: jobs, Obs: scope})
				text, jsonDump, trace := dumpTelemetry(t, scope)
				return res, text, jsonDump, trace
			}
			res1, text1, json1, trace1 := run(1)
			res4, text4, json4, trace4 := run(4)

			assertSameResult(t, "jobs=1 vs jobs=4 (telemetry attached)", res1, res4)
			if text1 != text4 {
				t.Errorf("text metrics dump differs between jobs=1 and jobs=4:\n--- jobs=1 ---\n%s\n--- jobs=4 ---\n%s", text1, text4)
			}
			if json1 != json4 {
				t.Error("JSON metrics dump differs between jobs=1 and jobs=4")
			}
			if trace1 != trace4 {
				t.Error("merged JSONL trace differs between jobs=1 and jobs=4")
			}

			// The dumps must actually contain telemetry — an experiment
			// that silently stopped threading cfg.Obs would pass the
			// comparisons above with empty output.
			if !strings.Contains(text1, "counter ") && !strings.Contains(text1, "histogram ") {
				t.Errorf("metrics dump is empty — %s no longer threads Config.Obs:\n%s", id, text1)
			}
			if len(trace1) == 0 {
				t.Errorf("trace dump is empty — %s no longer emits events", id)
			}
		})
	}
}

// TestTelemetryDisabledByDefault pins the zero-cost default: a run with
// no Obs scope must behave identically to one that never heard of
// telemetry (nil scope handles are no-ops all the way down).
func TestTelemetryDisabledByDefault(t *testing.T) {
	runner, ok := Get("table1")
	if !ok {
		t.Fatal("unknown experiment table1")
	}
	plain := runner(Config{Seed: 99, Scale: 0.2, Jobs: 2})
	scoped := runner(Config{Seed: 99, Scale: 0.2, Jobs: 2, Obs: obs.NewScope(64)})
	assertSameResult(t, "nil Obs vs attached Obs", plain, scoped)
}
