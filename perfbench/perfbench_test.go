package main

import (
	"encoding/json"
	"io"
	"os"
	"reflect"
	"sort"
	"testing"

	"mobiwlan/internal/sim"
)

// Short workload sizes: the same code paths as the benchmark sizes.
var (
	testFleet = fleetSize{clients: 8, duration: 1, jobs: 2}
	testHallS = 1.0
	testCtl   = ctlSize{aps: 2, clientsPerAP: 50, reportsPerClient: 24}
)

// TestTracedDriverMatchesSim pins the traced driver to the simulator:
// on short runs at two seeds it must reproduce sim.RunWLANFleet and
// sim.RunScenarioFleet exactly.
func TestTracedDriverMatchesSim(t *testing.T) {
	for _, seed := range []uint64{1, 42} {
		want := sim.RunWLANFleet(testFleet.options(), seed)
		got, _, lc, bad := tracedFleet(testFleet, seed)
		compareFleets(t, "fleet-mixed", seed, want, got)
		if len(bad) > 0 || lc.mpdu.Offered == 0 {
			t.Errorf("fleet-mixed seed %d: checks %v, %d MPDUs offered", seed, bad, lc.mpdu.Offered)
		}

		in, err := buildHall(seed, testHallS)
		if err != nil {
			t.Fatal(err)
		}
		want, err = sim.RunScenarioFleet(in.spec, hallOptions(), seed)
		if err != nil {
			t.Fatal(err)
		}
		got, _, lc = tracedHall(in)
		compareFleets(t, "hall-contended", seed, want, got)
		if bad := checkFleet(got, in.spec.Total, in.spec.DurationS); len(bad) > 0 {
			t.Errorf("hall-contended seed %d: %v", seed, bad)
		}
		if lc.reserves == 0 || lc.granted == 0 {
			t.Errorf("hall-contended seed %d: %d reserves, %d granted", seed, lc.reserves, lc.granted)
		}
	}
}

func compareFleets(t *testing.T, name string, seed uint64, want, got sim.FleetResult) {
	t.Helper()
	if !reflect.DeepEqual(want, got) {
		t.Errorf("%s seed %d: traced driver differs from sim:\n got %+v\nwant %+v", name, seed, got, want)
	}
	if digest(want) != digest(got) {
		t.Errorf("%s seed %d: digests differ", name, seed)
	}
}

// TestDigestSeesEveryClient guards the digest the traced runs compare.
func TestDigestSeesEveryClient(t *testing.T) {
	r := sim.RunWLANFleet(testFleet.options(), 1)
	d := digest(r)
	r.PerClient[len(r.PerClient)-1].Scans++
	if digest(r) == d {
		t.Fatal("digest ignores a per-client field")
	}
}

type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestMetricsDeclared runs every workload once, untraced and traced, at
// short sizes and checks that it prints exactly the metrics BENCHMARK.json
// declares, with the declared units, and passes its output checks.
func TestMetricsDeclared(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl declared
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	e2eUnits := map[string]string{}
	for _, m := range decl.EndToEnd {
		e2eUnits[m.Name] = m.Unit
	}
	layerUnits := map[string]string{}
	for _, m := range decl.PerLayer {
		layerUnits[m.Name] = m.Unit
	}

	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	var declNames []string
	for _, w := range decl.Workloads {
		declNames = append(declNames, w.Name)
	}
	if !reflect.DeepEqual(names, declNames) {
		t.Errorf("workloads %v, BENCHMARK.json declares %v", names, declNames)
	}

	short := []workload{fleetMixed(testFleet), hallContended(testHallS), ctlRoam(testCtl)}
	for _, w := range short {
		p := params{seed: 3, seconds: 0, log: io.Discard}
		for _, traced := range []bool{false, true} {
			fn, want := w.e2e, e2eUnits
			if traced {
				fn, want = w.traced, layerUnits
			}
			out, err := fn(p)
			if err != nil {
				t.Fatalf("%s traced=%t: %v", w.name, traced, err)
			}
			if out.failed != 0 || out.attempted == 0 {
				t.Errorf("%s traced=%t: %d of %d failed", w.name, traced, out.failed, out.attempted)
			}
			got := map[string]string{}
			for name, m := range out.metrics {
				got[name] = m.Unit
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s traced=%t: printed metrics differ from BENCHMARK.json:\n got %v\nwant %v",
					w.name, traced, sortedKeys(got), sortedKeys(want))
			}
		}
	}
}

func sortedKeys(m map[string]string) []string {
	var ks []string
	for k, v := range m {
		ks = append(ks, k+" ["+v+"]")
	}
	sort.Strings(ks)
	return ks
}

// TestRunRejectsBadArgs checks the command's argument errors.
func TestRunRejectsBadArgs(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "ctl-roam", "--trace", "2"},
	} {
		if code := run(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
	}
}
