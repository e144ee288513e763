package scenario

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mobiwlan/internal/geom"
	"mobiwlan/internal/mobility"
	"mobiwlan/internal/stats"
)

// examplesDir is the committed scenario corpus exercised by these tests.
const examplesDir = "../../examples/scenarios"

func exampleFiles(t testing.TB) []string {
	files, err := filepath.Glob(filepath.Join(examplesDir, "*.json"))
	if err != nil {
		t.Fatalf("glob examples: %v", err)
	}
	if len(files) < 5 {
		t.Fatalf("found %d example scenarios, want at least 5", len(files))
	}
	return files
}

func TestExamplesParseAndBuild(t *testing.T) {
	aps := []geom.Point{geom.Pt(10, 10), geom.Pt(40, 10), geom.Pt(25, 25)}
	for _, file := range exampleFiles(t) {
		spec, err := ParseFile(file)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		if spec.Total < 1 || len(spec.Groups) < 1 {
			t.Fatalf("%s: empty spec after parse", file)
		}
		for _, apSet := range [][]geom.Point{nil, aps} {
			clients, err := Build(spec, apSet, 42)
			if err != nil {
				t.Fatalf("%s: Build: %v", file, err)
			}
			if len(clients) != spec.Total {
				t.Fatalf("%s: built %d clients, want %d", file, len(clients), spec.Total)
			}
			names := map[string]bool{}
			for _, c := range clients {
				if names[c.Name] {
					t.Fatalf("%s: duplicate client name %q", file, c.Name)
				}
				names[c.Name] = true
				if c.Scen == nil || c.Scen.Client == nil {
					t.Fatalf("%s: client %s has no trajectory", file, c.Name)
				}
				if c.Scen.Label != c.Mode {
					t.Fatalf("%s: client %s label %v != mode %v", file, c.Name, c.Scen.Label, c.Mode)
				}
				if c.Scen.Duration != spec.DurationS {
					t.Fatalf("%s: client %s duration %v != spec %v", file, c.Name, c.Scen.Duration, spec.DurationS)
				}
				if apSet == nil && c.HomeAP != -1 {
					t.Fatalf("%s: client %s homed to %d without a deployment", file, c.Name, c.HomeAP)
				}
				if apSet != nil && (c.HomeAP < 0 || c.HomeAP >= len(apSet)) {
					t.Fatalf("%s: client %s home %d out of deployment range", file, c.Name, c.HomeAP)
				}
				// The trajectory must be sampleable over the full duration.
				for ts := 0.0; ts <= spec.DurationS; ts += spec.DurationS / 7 {
					c.Scen.Client.At(ts)
				}
			}
		}
	}
}

func TestBuildDeterminism(t *testing.T) {
	for _, file := range exampleFiles(t) {
		spec, err := ParseFile(file)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		a, err := Build(spec, nil, 7)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		b, err := Build(spec, nil, 7)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		for i := range a {
			if a[i].SimSeed != b[i].SimSeed || a[i].Name != b[i].Name {
				t.Fatalf("%s: client %d differs between identical builds", file, i)
			}
			for ts := 0.0; ts < spec.DurationS; ts += 1.7 {
				pa, pb := a[i].Scen.Client.At(ts), b[i].Scen.Client.At(ts)
				if pa != pb {
					t.Fatalf("%s: client %d trajectory differs at t=%.1f: %v vs %v",
						file, i, ts, pa, pb)
				}
			}
		}
	}
}

func TestBuildGroupMovesTogether(t *testing.T) {
	spec, err := ParseFile(filepath.Join(examplesDir, "meeting-room.json"))
	if err != nil {
		t.Fatal(err)
	}
	clients, err := Build(spec, nil, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(clients) < 2 {
		t.Fatalf("meeting room has %d clients", len(clients))
	}
	// Members keep a constant pairwise offset: they are seats around one
	// shared leader walk.
	d0 := clients[0].Scen.Client.At(0).Dist(clients[1].Scen.Client.At(0))
	for ts := 0.0; ts <= spec.DurationS; ts += 2.3 {
		d := clients[0].Scen.Client.At(ts).Dist(clients[1].Scen.Client.At(ts))
		if diff := d - d0; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("pair distance changed from %.3f to %.3f at t=%.1f — not a group walk", d0, d, ts)
		}
	}
	// Before start_s the whole room is seated (positions hold).
	g := spec.Groups[0]
	if g.StartS <= 0 {
		t.Fatal("meeting-room example must delay its start")
	}
	p0 := clients[0].Scen.Client.At(0)
	if p := clients[0].Scen.Client.At(g.StartS * 0.9); p != p0 {
		t.Fatalf("attendee moved before start_s: %v -> %v", p0, p)
	}
	if p := clients[0].Scen.Client.At(g.StartS + 10); p == p0 {
		t.Fatal("attendee never moved after start_s")
	}
}

func TestBuildHomeTranslation(t *testing.T) {
	spec, err := Parse("inline", []byte(`{
		"v": 1, "name": "homes", "duration_s": 10,
		"clients": [
			{ "id": "a", "mode": "static", "home_ap": 1 },
			{ "id": "b", "mode": "static" }
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	aps := []geom.Point{geom.Pt(100, 100), geom.Pt(300, 50)}
	clients, err := Build(spec, aps, 3)
	if err != nil {
		t.Fatal(err)
	}
	if clients[0].HomeAP != 1 {
		t.Fatalf("pinned client homed to %d, want 1", clients[0].HomeAP)
	}
	if clients[1].HomeAP != 1 { // flat index 1 % 2 APs
		t.Fatalf("auto client homed to %d, want 1", clients[1].HomeAP)
	}
	// The scene frame follows the home AP: the scenario AP must be the
	// deployment AP, and the static client must sit within scene range.
	if clients[0].Scen.AP != aps[1] {
		t.Fatalf("scene AP %v, want %v", clients[0].Scen.AP, aps[1])
	}
	if d := clients[0].Scen.Client.At(0).Dist(aps[1]); d > 25 {
		t.Fatalf("client %g m from its home AP", d)
	}

	// A home_ap beyond the deployment is a Build-time error.
	spec2, err := Parse("inline", []byte(`{
		"v": 1, "name": "toofar", "duration_s": 10,
		"clients": [ { "id": "a", "mode": "static", "home_ap": 7 } ]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(spec2, aps, 3); err == nil {
		t.Fatal("home_ap 7 against 2 APs must fail")
	}
}

// TestBuildIgnoresHomeAPWithoutDeployment pins the uncontended case: with
// no deployment a pinned home_ap is ignored, not checked against zero APs.
func TestBuildIgnoresHomeAPWithoutDeployment(t *testing.T) {
	spec, err := Parse("inline", []byte(`{
		"v": 1, "name": "homes", "duration_s": 10,
		"clients": [
			{ "id": "a", "mode": "static", "home_ap": 1 },
			{ "id": "b", "mode": "macro" }
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	clients, err := Build(spec, nil, 3)
	if err != nil {
		t.Fatalf("Build without a deployment: %v", err)
	}
	for _, c := range clients {
		if c.HomeAP != -1 {
			t.Errorf("client %s homed to %d without a deployment, want -1", c.Name, c.HomeAP)
		}
	}
}

// TestRoundRobinMatchesParsedDefaults pins the generated round-robin spec
// to the parser's defaults and to the round-robin fleet's derivation. A
// default that drifted between the file path and the generated path would
// silently change every `mobisim fleet -clients N` run.
func TestRoundRobinMatchesParsedDefaults(t *testing.T) {
	parsed, err := Parse("rr.json", []byte(`{
		"v": 1, "name": "rr", "duration_s": 8,
		"clients": [
			{ "id": "s", "mode": "static" },
			{ "id": "e", "mode": "environmental" },
			{ "id": "mi", "mode": "micro" },
			{ "id": "ma", "mode": "macro" }
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	rr := RoundRobin(4, 8, true)
	if rr.Floor != parsed.Floor || rr.DurationS != parsed.DurationS ||
		rr.Total != parsed.Total || len(rr.Groups) != len(parsed.Groups) {
		t.Fatalf("generated spec %+v, parsed %+v", rr, parsed)
	}
	for i, want := range parsed.Groups {
		got := rr.Groups[i]
		got.ID, want.ID = "", ""
		if got != want {
			t.Errorf("group %d: generated %+v, parsed %+v", i, got, want)
		}
	}

	// Build gives client i the scene and seed of Split(seed, i+1), and the
	// home AP i % len(APs) when there is a deployment.
	const seed = 77
	spec := RoundRobin(6, 2, false)
	grid := []geom.Point{geom.Pt(8, 7), geom.Pt(25, 7), geom.Pt(8, 23), geom.Pt(25, 23)}
	for _, aps := range [][]geom.Point{nil, grid} {
		clients, err := Build(spec, aps, seed)
		if err != nil {
			t.Fatal(err)
		}
		if len(clients) != 6 {
			t.Fatalf("built %d clients, want 6", len(clients))
		}
		for i, c := range clients {
			base := stats.NewRNG(seed).Split(uint64(i) + 1)
			wantHome := -1
			if aps != nil {
				wantHome = i % len(aps)
			}
			if c.Mode != mobility.AllModes[i%4] || c.HomeAP != wantHome || c.MotionAware {
				t.Errorf("aps=%d client %d: mode %v home %d aware %v, want %v, %d, false",
					len(aps), i, c.Mode, c.HomeAP, c.MotionAware, mobility.AllModes[i%4], wantHome)
			}
			if c.SimSeed != base.Split(2).Uint64() {
				t.Errorf("aps=%d client %d: sim seed is not Split(seed, i+1).Split(2)", len(aps), i)
			}
			if aps == nil {
				scfg := mobility.DefaultSceneConfig()
				scfg.Duration = 2
				if want := mobility.NewScenario(c.Mode, scfg, base.Split(1)); !reflect.DeepEqual(c.Scen, want) {
					t.Errorf("client %d: scene differs from the default scene of Split(seed, i+1).Split(1)", i)
				}
			}
		}
	}
	if s := RoundRobin(-3, 0, true); s.Total != 0 || len(s.Groups) != 0 || s.DurationS != 30 {
		t.Errorf("RoundRobin(-3, 0) = %+v, want an empty 30 s spec", s)
	}
}

// errCase drives the error-path table: each bad document must fail with an
// *Error whose position and path single out the offending value.
type errCase struct {
	name     string
	doc      string
	wantPath string
	wantLine int
	wantMsg  string
}

func TestParseErrors(t *testing.T) {
	valid := func(extra string) string {
		return `{
  "v": 1,
  "name": "t",
  "duration_s": 30,
  "clients": [
    { "id": "a", "mode": "static"` + extra + ` }
  ]
}`
	}
	cases := []errCase{
		{
			name:     "unknown top-level field",
			doc:      "{\n  \"v\": 1,\n  \"name\": \"t\",\n  \"durationn_s\": 30,\n  \"clients\": [ { \"id\": \"a\", \"mode\": \"static\" } ]\n}",
			wantPath: "durationn_s", wantLine: 4, wantMsg: "unknown field",
		},
		{
			name:     "unknown client field",
			doc:      valid(", \"speeed\": 2"),
			wantPath: "clients[0].speeed", wantLine: 6, wantMsg: "unknown field",
		},
		{
			name:     "wrong type",
			doc:      "{\n  \"v\": 1,\n  \"name\": \"t\",\n  \"duration_s\": \"thirty\",\n  \"clients\": [ { \"id\": \"a\", \"mode\": \"static\" } ]\n}",
			wantPath: "duration_s", wantLine: 4, wantMsg: "want number",
		},
		{
			name:     "out-of-range speed",
			doc:      "{\n  \"v\": 1,\n  \"name\": \"t\",\n  \"duration_s\": 30,\n  \"clients\": [\n    { \"id\": \"a\", \"mode\": \"macro\",\n      \"speed_mps\": 99 }\n  ]\n}",
			wantPath: "clients[0].speed_mps", wantLine: 7, wantMsg: "out of range",
		},
		{
			name:     "unknown speed profile",
			doc:      "{\n  \"v\": 1,\n  \"name\": \"t\",\n  \"duration_s\": 30,\n  \"clients\": [\n    { \"id\": \"a\", \"mode\": \"macro\", \"speed\": \"jetpack\" }\n  ]\n}",
			wantPath: "clients[0].speed", wantLine: 6, wantMsg: "unknown speed profile",
		},
		{
			name:     "duplicate client id",
			doc:      "{\n  \"v\": 1,\n  \"name\": \"t\",\n  \"duration_s\": 30,\n  \"clients\": [\n    { \"id\": \"a\", \"mode\": \"static\" },\n    { \"id\": \"a\", \"mode\": \"micro\" }\n  ]\n}",
			wantPath: "clients[1].id", wantLine: 7, wantMsg: "duplicate client id",
		},
		{
			name:     "unsupported version",
			doc:      "{\n  \"v\": 2,\n  \"name\": \"t\",\n  \"duration_s\": 30,\n  \"clients\": [ { \"id\": \"a\", \"mode\": \"static\" } ]\n}",
			wantPath: "v", wantLine: 2, wantMsg: "unsupported version",
		},
		{
			name:     "speed on non-macro client",
			doc:      valid(", \"speed_mps\": 2"),
			wantPath: "clients[0].speed_mps", wantLine: 6, wantMsg: "only applies to macro",
		},
		{
			name:     "model/mode mismatch",
			doc:      valid(", \"model\": \"manhattan\""),
			wantPath: "clients[0].model", wantLine: 6, wantMsg: "does not apply to mode",
		},
		{
			name:     "pause on non-rwp model",
			doc:      "{\n  \"v\": 1,\n  \"name\": \"t\",\n  \"duration_s\": 30,\n  \"clients\": [\n    { \"id\": \"a\", \"mode\": \"macro\", \"pause_s\": 3 }\n  ]\n}",
			wantPath: "clients[0].pause_s", wantLine: 6, wantMsg: "only applies to model",
		},
		{
			name:     "bad mode",
			doc:      valid("") + "", // placeholder replaced below
			wantPath: "clients[0].mode", wantLine: 6, wantMsg: "unknown mode",
		},
		{
			name:     "duplicate key",
			doc:      "{\n  \"v\": 1,\n  \"v\": 1,\n  \"name\": \"t\",\n  \"duration_s\": 30,\n  \"clients\": [ { \"id\": \"a\", \"mode\": \"static\" } ]\n}",
			wantPath: "", wantLine: 3, wantMsg: "duplicate key",
		},
		{
			name:     "trailing garbage",
			doc:      "{ \"v\": 1, \"name\": \"t\", \"duration_s\": 30, \"clients\": [ { \"id\": \"a\", \"mode\": \"static\" } ] }\ntrue",
			wantPath: "", wantLine: 2, wantMsg: "after the top-level value",
		},
		{
			name:     "non-integer count",
			doc:      valid(", \"count\": 2.5"),
			wantPath: "clients[0].count", wantLine: 6, wantMsg: "must be an integer",
		},
		{
			name:     "circle does not fit",
			doc:      "{\n  \"v\": 1,\n  \"name\": \"t\",\n  \"duration_s\": 30,\n  \"clients\": [\n    { \"id\": \"a\", \"mode\": \"macro\", \"model\": \"circle\",\n      \"radius_m\": 20 }\n  ]\n}",
			wantPath: "clients[0].radius_m", wantLine: 7, wantMsg: "does not fit",
		},
		{
			name:     "start past duration",
			doc:      valid(", \"start_s\": 31"),
			wantPath: "clients[0].start_s", wantLine: 6, wantMsg: "out of range",
		},
	}
	cases[10].doc = strings.Replace(valid(""), "\"static\"", "\"jogging\"", 1)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse("test.json", []byte(c.doc))
			if err == nil {
				t.Fatalf("document accepted, want error\n%s", c.doc)
			}
			var se *Error
			if !errors.As(err, &se) {
				t.Fatalf("error is %T, want *Error: %v", err, err)
			}
			if se.Path != c.wantPath {
				t.Errorf("path %q, want %q (error: %v)", se.Path, c.wantPath, err)
			}
			if se.Line != c.wantLine {
				t.Errorf("line %d, want %d (error: %v)", se.Line, c.wantLine, err)
			}
			if !strings.Contains(se.Msg, c.wantMsg) {
				t.Errorf("message %q does not contain %q", se.Msg, c.wantMsg)
			}
			// The rendered form is "name:line:col: path: msg".
			if !strings.HasPrefix(err.Error(), fmt.Sprintf("test.json:%d:", c.wantLine)) {
				t.Errorf("rendered error %q lacks the name:line:col prefix", err.Error())
			}
		})
	}
}

func TestParseMissingRequired(t *testing.T) {
	for _, missing := range []string{"v", "name", "duration_s", "clients"} {
		full := map[string]string{
			"v":          `"v": 1`,
			"name":       `"name": "t"`,
			"duration_s": `"duration_s": 30`,
			"clients":    `"clients": [ { "id": "a", "mode": "static" } ]`,
		}
		var parts []string
		for _, k := range []string{"v", "name", "duration_s", "clients"} {
			if k != missing {
				parts = append(parts, full[k])
			}
		}
		doc := "{ " + strings.Join(parts, ", ") + " }"
		_, err := Parse("t.json", []byte(doc))
		if err == nil {
			t.Fatalf("accepted document missing %q", missing)
		}
		var se *Error
		if !errors.As(err, &se) || !strings.Contains(se.Msg, "missing required") && !strings.Contains(se.Msg, "missing") {
			t.Fatalf("missing %q: unexpected error %v", missing, err)
		}
	}
}

func TestParseSyntaxErrorHasPosition(t *testing.T) {
	_, err := Parse("bad.json", []byte("{\n  \"v\": 1,\n  \"name\" \"t\"\n}"))
	if err == nil {
		t.Fatal("syntax error accepted")
	}
	var se *Error
	if !errors.As(err, &se) {
		t.Fatalf("error is %T, want *Error", err)
	}
	if se.Line != 3 {
		t.Errorf("syntax error at line %d, want 3: %v", se.Line, err)
	}
}

func TestParseRejectsOversizeAndDeep(t *testing.T) {
	big := make([]byte, MaxFileBytes+1)
	if _, err := Parse("big.json", big); err == nil {
		t.Error("oversize file accepted")
	}
	deep := strings.Repeat("[", maxDepth+2) + strings.Repeat("]", maxDepth+2)
	if _, err := Parse("deep.json", []byte(deep)); err == nil {
		t.Error("over-deep file accepted")
	}
}

func TestParseFileMissing(t *testing.T) {
	if _, err := ParseFile(filepath.Join(os.TempDir(), "no-such-scenario.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestDefaultsFlowIntoGroups(t *testing.T) {
	spec, err := Parse("d.json", []byte(`{
		"v": 1, "name": "d", "duration_s": 10,
		"defaults": { "speed": "bike", "motion_aware": false, "micro_radius_m": 1.5 },
		"clients": [
			{ "id": "m", "mode": "macro" },
			{ "id": "j", "mode": "micro", "motion_aware": true }
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Groups[0].SpeedMPS != mobility.SpeedBike {
		t.Errorf("macro speed %g, want bike default", spec.Groups[0].SpeedMPS)
	}
	if spec.Groups[0].MotionAware {
		t.Error("group 0 must inherit motion_aware=false")
	}
	if !spec.Groups[1].MotionAware {
		t.Error("group 1 must override motion_aware=true")
	}
	if spec.Groups[1].MicroRadiusM != 1.5 {
		t.Errorf("micro radius %g, want defaults 1.5", spec.Groups[1].MicroRadiusM)
	}
}
