package experiments

import (
	"strings"
	"testing"
)

func TestFigure7aShape(t *testing.T) {
	r := Figure7a(quickCfg())
	if len(r.Series) != 5 {
		t.Fatalf("want 5 variants, got %v", seriesNames(r))
	}
	away := medianX(seriesByName(t, r, "macro-away"))
	for _, name := range []string{"static", "environmental", "micro", "macro-toward"} {
		if m := medianX(seriesByName(t, r, name)); m >= away {
			t.Errorf("switching gain for %s (%.1f%%) should trail macro-away (%.1f%%)", name, m, away)
		}
	}
	if away < 4 {
		t.Errorf("macro-away median switching gain = %.1f%%, want clearly positive", away)
	}
}

func TestFigure7bShape(t *testing.T) {
	r := Figure7b(quickCfg())
	def := medianX(seriesByName(t, r, "default"))
	aware := medianX(seriesByName(t, r, "motion-aware"))
	if aware < def {
		t.Errorf("motion-aware roaming median (%.1f) below default (%.1f)", aware, def)
	}
}

func TestFigure8aShape(t *testing.T) {
	r := Figure8a(quickCfg())
	staticHold := medianX(seriesByName(t, r, "static"))
	macroHold := medianX(seriesByName(t, r, "macro"))
	if staticHold <= macroHold {
		t.Errorf("optimal-rate hold: static median (%.0f ms) should exceed macro (%.0f ms)",
			staticHold, macroHold)
	}
}

func TestFigure8bShape(t *testing.T) {
	r := Figure8b(quickCfg())
	toward := seriesByName(t, r, "moving-toward")
	away := seriesByName(t, r, "moving-away")
	if lastY(toward) <= firstY(toward) {
		t.Errorf("toward walk: optimal MCS should rise (%v -> %v)", firstY(toward), lastY(toward))
	}
	if lastY(away) >= firstY(away) {
		t.Errorf("away walk: optimal MCS should fall (%v -> %v)", firstY(away), lastY(away))
	}
}

func TestFigure8cShape(t *testing.T) {
	r := Figure8c(quickCfg())
	for _, name := range []string{"environmental", "micro"} {
		s := seriesByName(t, r, name)
		// No systematic trend: end within a few MCS steps of the start.
		if d := lastY(s) - firstY(s); d > 6 || d < -6 {
			t.Errorf("%s optimal MCS drifted by %v steps", name, d)
		}
	}
}

func TestFigure9aShape(t *testing.T) {
	skipIfShort(t)
	r := Figure9a(quickCfg())
	if len(r.Notes) == 0 || !strings.Contains(r.Notes[0], "median") {
		t.Fatal("missing median note")
	}
	stock := seriesByName(t, r, "atheros")
	aware := seriesByName(t, r, "motion-aware")
	var sSum, aSum float64
	for i := range stock.Points {
		sSum += stock.Points[i].Y
		aSum += aware.Points[i].Y
	}
	if aSum < sSum*0.95 {
		t.Errorf("motion-aware total (%.1f) clearly below stock (%.1f)", aSum, sSum)
	}
}

func TestFigure9bShape(t *testing.T) {
	skipIfShort(t)
	r := Figure9b(quickCfg())
	get := func(name string) float64 { return seriesByName(t, r, name).Points[0].Y }
	esnr := get("esnr")
	aware := get("motion-aware")
	atheros := get("atheros")
	if esnr <= 0 || aware <= 0 {
		t.Fatal("zero throughput in bake-off")
	}
	// Paper shape: ESNR is the strongest; motion-aware reaches ~90% of it
	// and beats stock Atheros.
	if aware > esnr*1.1 {
		t.Errorf("motion-aware (%.1f) should not clearly beat ESNR (%.1f)", aware, esnr)
	}
	if aware < esnr*0.6 {
		t.Errorf("motion-aware (%.1f) too far below ESNR (%.1f); paper reports ~90%%", aware, esnr)
	}
	if aware < atheros*0.95 {
		t.Errorf("motion-aware (%.1f) should be at or above stock Atheros (%.1f)", aware, atheros)
	}
}

func TestFigure10aShape(t *testing.T) {
	skipIfShort(t)
	r := Figure10a(quickCfg())
	static := seriesByName(t, r, "static")
	macro := seriesByName(t, r, "macro")
	// Static: 8 ms at least as good as 2 ms. Macro: 2 ms clearly better
	// than 8 ms (the paper's crossover).
	if lastY(static) < firstY(static)*0.97 {
		t.Errorf("static throughput should grow with aggregation (2ms=%.1f, 8ms=%.1f)",
			firstY(static), lastY(static))
	}
	if firstY(macro) <= lastY(macro) {
		t.Errorf("macro throughput should shrink with aggregation (2ms=%.1f, 8ms=%.1f)",
			firstY(macro), lastY(macro))
	}
}

func TestFigure10bShape(t *testing.T) {
	skipIfShort(t)
	r := Figure10b(quickCfg())
	adaptive := medianX(seriesByName(t, r, "adaptive"))
	fixed4 := medianX(seriesByName(t, r, "fixed-4ms"))
	fixed8 := medianX(seriesByName(t, r, "fixed-8ms"))
	if adaptive < fixed4*0.9 || adaptive < fixed8*0.9 {
		t.Errorf("adaptive median (%.1f) should be near or above fixed policies (4ms=%.1f, 8ms=%.1f)",
			adaptive, fixed4, fixed8)
	}
}

func TestFigure11aShape(t *testing.T) {
	skipIfShort(t)
	r := Figure11a(quickCfg())
	static := seriesByName(t, r, "static")
	macro := seriesByName(t, r, "macro")
	// Static: long periods at least as good as the shortest (overhead
	// dominates). Macro: short periods clearly better than the longest.
	if lastY(static) < firstY(static)*0.97 {
		t.Errorf("static SU-BF: 200 ms (%.1f) should not trail 5 ms (%.1f)", lastY(static), firstY(static))
	}
	if firstY(macro) <= lastY(macro) {
		t.Errorf("macro SU-BF: 5 ms (%.1f) should beat 200 ms (%.1f)", firstY(macro), lastY(macro))
	}
}

func TestFigure11bShape(t *testing.T) {
	skipIfShort(t)
	r := Figure11b(quickCfg())
	if m := medianX(seriesByName(t, r, "gain")); m < 0 {
		t.Errorf("median motion-aware TxBF gain = %.1f%%, want >= 0", m)
	}
}

func TestFigure12aShape(t *testing.T) {
	r := Figure12a(quickCfg())
	macro := seriesByName(t, r, "macro")
	if firstY(macro) <= lastY(macro) {
		t.Errorf("macro MU user: 2 ms feedback (%.1f) should beat 100 ms (%.1f)",
			firstY(macro), lastY(macro))
	}
	env := seriesByName(t, r, "environmental")
	// The stationary-ish user is far less sensitive to the period than
	// the macro user.
	macroDrop := firstY(macro) - lastY(macro)
	envDrop := firstY(env) - lastY(env)
	if envDrop > macroDrop {
		t.Errorf("environmental user lost more (%.1f) than macro (%.1f) with stale feedback",
			envDrop, macroDrop)
	}
}

func TestFigure12bShape(t *testing.T) {
	skipIfShort(t)
	r := Figure12b(quickCfg())
	if m := medianX(seriesByName(t, r, "overall")); m < 0 {
		t.Errorf("overall MU-MIMO gain median = %.1f%%, want >= 0", m)
	}
	macroGain := medianX(seriesByName(t, r, "macro"))
	envGain := medianX(seriesByName(t, r, "environmental"))
	if macroGain < envGain-5 {
		t.Errorf("macro client gain (%.1f%%) should be at least environmental's (%.1f%%)",
			macroGain, envGain)
	}
}

func TestFigure13Shape(t *testing.T) {
	skipIfShort(t)
	r := Figure13(quickCfg())
	def := medianX(seriesByName(t, r, "802.11n-default"))
	aware := medianX(seriesByName(t, r, "motion-aware"))
	if aware <= def {
		t.Errorf("overall: motion-aware median (%.1f) should beat default (%.1f)", aware, def)
	}
}

func TestTable2Rendered(t *testing.T) {
	r := Table2(quickCfg())
	for _, want := range []string{"PER smoothing", "aggregation limit", "CV update", "macro-away"} {
		if !strings.Contains(r.Text, want) {
			t.Errorf("Table 2 missing %q:\n%s", want, r.Text)
		}
	}
}

// TestRegistryResolvesEveryID checks the registry cmd/figures reads:
// every ID that IDs lists is unique and resolves through Get, and a
// runner returns its own ID (table2, the cheapest, at scale 0.1).
func TestRegistryResolvesEveryID(t *testing.T) {
	ids := IDs()
	if len(ids) == 0 {
		t.Fatal("no experiments registered")
	}
	seen := map[string]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Errorf("duplicate ID %q", id)
		}
		seen[id] = true
		if r, ok := Get(id); !ok || r == nil {
			t.Errorf("IDs lists %q but Get does not resolve it", id)
		}
	}
	r, ok := Get("table2")
	if !ok {
		t.Fatal("table2 not registered")
	}
	if res := r(Config{Seed: 1, Scale: 0.1}); res.ID != "table2" {
		t.Fatalf("runner returned ID %q", res.ID)
	}
}
