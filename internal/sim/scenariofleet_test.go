package sim

import (
	"fmt"
	"reflect"
	"testing"

	"mobiwlan/internal/scenario"
)

func parseSpec(t *testing.T, doc string) *scenario.Spec {
	t.Helper()
	spec, err := scenario.Parse("inline.json", []byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

const testSpecDoc = `{
	"v": 1, "name": "test-mix", "duration_s": 8,
	"clients": [
		{ "id": "desk", "mode": "static" },
		{ "id": "pacer", "count": 2, "mode": "macro", "model": "random-waypoint", "speed": "pedestrian" },
		{ "id": "caller", "mode": "micro" },
		{ "id": "rider", "mode": "macro", "model": "manhattan", "speed": "bike" }
	]
}`

func TestRunScenarioFleetDeterministic(t *testing.T) {
	spec := parseSpec(t, testSpecDoc)
	run := func(jobs int) FleetResult {
		opt := FleetOptions{Jobs: jobs}
		res, err := RunScenarioFleet(spec, opt, 42)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(1), run(8)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("scenario fleet differs between jobs=1 and jobs=8:\n%+v\nvs\n%+v", a, b)
	}
	if len(a.PerClient) != spec.Total {
		t.Fatalf("%d results, want %d", len(a.PerClient), spec.Total)
	}
	wantNames := []string{"desk", "pacer#0", "pacer#1", "caller", "rider"}
	if !reflect.DeepEqual(a.Names, wantNames) {
		t.Fatalf("names %v, want %v", a.Names, wantNames)
	}
	for i, c := range a.PerClient {
		if c.Client != i {
			t.Fatalf("result %d has client index %d", i, c.Client)
		}
		if c.Mbps <= 0 {
			t.Fatalf("client %s achieved no goodput", a.Names[i])
		}
	}
}

func TestRunScenarioFleetContended(t *testing.T) {
	spec := parseSpec(t, `{
		"v": 1, "name": "contend-mix", "duration_s": 6,
		"clients": [
			{ "id": "anchored", "count": 2, "mode": "static", "home_ap": 1 },
			{ "id": "roamer", "count": 2, "mode": "macro", "speed": "pedestrian" }
		]
	}`)
	run := func(jobs int) FleetResult {
		opt := FleetOptions{Jobs: jobs, Contend: true, MaxAPs: 3}
		res, err := RunScenarioFleet(spec, opt, 7)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(1), run(4)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("contended scenario fleet differs between jobs values")
	}
	if a.Contend == nil {
		t.Fatal("contended run returned no medium stats")
	}
	if len(a.PerClient) != 4 || len(a.Names) != 4 {
		t.Fatalf("got %d results / %d names, want 4", len(a.PerClient), len(a.Names))
	}
	if a.Contend.MPDU.Offered == 0 {
		t.Fatal("no offered MPDUs on the shared medium")
	}
}

// TestRunScenarioFleetUncontendedHomeAP pins that home_ap only matters
// with contention: an uncontended run accepts it and ignores it.
func TestRunScenarioFleetUncontendedHomeAP(t *testing.T) {
	const doc = `{
		"v": 1, "name": "home-mix", "duration_s": 3,
		"clients": [
			{ "id": "anchored", "mode": "static"%s },
			{ "id": "roamer", "mode": "macro" }
		]
	}`
	opt := FleetOptions{Jobs: 2}
	pinned, err := RunScenarioFleet(parseSpec(t, fmt.Sprintf(doc, `, "home_ap": 1`)), opt, 7)
	if err != nil {
		t.Fatalf("uncontended run rejected home_ap: %v", err)
	}
	free, err := RunScenarioFleet(parseSpec(t, fmt.Sprintf(doc, "")), opt, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pinned, free) {
		t.Fatalf("home_ap changed an uncontended run:\n%+v\nvs\n%+v", pinned, free)
	}
}

func TestRunScenarioFleetHomeAPTooLarge(t *testing.T) {
	spec := parseSpec(t, `{
		"v": 1, "name": "bad-home", "duration_s": 5,
		"clients": [ { "id": "a", "mode": "static", "home_ap": 63 } ]
	}`)
	opt := FleetOptions{Contend: true}
	if _, err := RunScenarioFleet(spec, opt, 1); err == nil {
		t.Fatal("home_ap beyond the deployment must fail")
	}
}
