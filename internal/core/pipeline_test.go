package core

import (
	"testing"

	"mobiwlan/internal/mobility"
	"mobiwlan/internal/stats"
)

// runMode runs the full pipeline for a generated scenario of the given mode.
func runMode(mode mobility.Mode, seed uint64, duration float64) []Decision {
	cfg := mobility.DefaultSceneConfig()
	cfg.Duration = duration
	scen := mobility.NewScenario(mode, cfg, stats.NewRNG(seed))
	return RunScenario(scen, DefaultPipelineConfig(), seed+7777)
}

func TestRunScenarioProducesDecisions(t *testing.T) {
	d := runMode(mobility.Static, 1, 10)
	// 10 s at 50 ms -> ~200 decisions.
	if len(d) < 150 || len(d) > 220 {
		t.Fatalf("got %d decisions for a 10 s run", len(d))
	}
	for _, dec := range d {
		if dec.Time < 0 || dec.Time >= 10 {
			t.Fatalf("decision time %v out of range", dec.Time)
		}
	}
}

func TestStateAt(t *testing.T) {
	at := StateAt([]Decision{{Time: 0.5, State: StateStatic}, {Time: 1, State: StateMicro}, {Time: 1.5, State: StateMacroAway}})
	for _, c := range []struct {
		t    float64
		want State
	}{
		{0, StateUnknown}, {0.5, StateStatic}, {0.99, StateStatic}, {1, StateMicro},
		{1.2, StateMicro}, {1.5, StateMacroAway}, {9, StateMacroAway},
	} {
		if got := at(c.t); got != c.want {
			t.Errorf("StateAt(%v) = %v, want %v", c.t, got, c.want)
		}
	}
	if got := StateAt(nil)(1); got != StateUnknown {
		t.Errorf("no decisions: got %v, want %v", got, StateUnknown)
	}
}

func TestRunScenarioDeterministic(t *testing.T) {
	a := runMode(mobility.Macro, 3, 12)
	b := runMode(mobility.Macro, 3, 12)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestStaticAccuracy(t *testing.T) {
	var accs []float64
	for seed := uint64(0); seed < 6; seed++ {
		accs = append(accs, Accuracy(runMode(mobility.Static, seed*31+1, 20), 2))
	}
	if m := stats.Mean(accs); m < 0.95 {
		t.Fatalf("static accuracy = %.3f, want >= 0.95 (paper: 97.9%%)", m)
	}
}

func TestEnvironmentalAccuracy(t *testing.T) {
	var accs []float64
	for seed := uint64(0); seed < 6; seed++ {
		accs = append(accs, Accuracy(runMode(mobility.Environmental, seed*37+2, 20), 2))
	}
	// Environmental draws vary widely (mover placement relative to the
	// link); Table 1 measures ~89%% over a larger sample. This smoke test
	// only guards against collapse.
	if m := stats.Mean(accs); m < 0.72 {
		t.Fatalf("environmental accuracy = %.3f, want >= 0.72 (paper: 92.4%%)", m)
	}
}

func TestMicroAccuracy(t *testing.T) {
	var accs []float64
	for seed := uint64(0); seed < 6; seed++ {
		accs = append(accs, Accuracy(runMode(mobility.Micro, seed*41+3, 25), 6))
	}
	if m := stats.Mean(accs); m < 0.80 {
		t.Fatalf("micro accuracy = %.3f, want >= 0.80 (paper: 93.7%%)", m)
	}
}

func TestMacroAccuracy(t *testing.T) {
	// Use controlled straight walks so ground truth is unambiguous; allow
	// the 4-5 s detection delay as warmup. 16 s at 1.4 m/s fits within the
	// longest radial corridor of the default floor plan.
	cfg := mobility.DefaultSceneConfig()
	cfg.Duration = 16
	var accs []float64
	for seed := uint64(0); seed < 6; seed++ {
		h := mobility.HeadingAway
		if seed%2 == 0 {
			h = mobility.HeadingToward
		}
		scen := mobility.NewMacroScenario(h, cfg, stats.NewRNG(seed*43+4))
		d := RunScenario(scen, DefaultPipelineConfig(), seed+99)
		accs = append(accs, Accuracy(d, 7))
	}
	if m := stats.Mean(accs); m < 0.80 {
		t.Fatalf("macro accuracy = %.3f, want >= 0.80 (paper: 97.1%%)", m)
	}
}

func TestMacroHeadingAccuracy(t *testing.T) {
	cfg := mobility.DefaultSceneConfig()
	cfg.Duration = 16
	var accs []float64
	for seed := uint64(0); seed < 6; seed++ {
		h := mobility.HeadingAway
		if seed%2 == 0 {
			h = mobility.HeadingToward
		}
		scen := mobility.NewMacroScenario(h, cfg, stats.NewRNG(seed*47+5))
		d := RunScenario(scen, DefaultPipelineConfig(), seed+123)
		accs = append(accs, HeadingAccuracy(d, 7))
	}
	if m := stats.Mean(accs); m < 0.75 {
		t.Fatalf("macro heading accuracy = %.3f, want >= 0.75", m)
	}
}

func TestConfusionMatrix(t *testing.T) {
	var cm ConfusionMatrix
	cfg := mobility.DefaultSceneConfig()
	cfg.Duration = 16 // fits the floor plan's longest radial corridor
	for _, mode := range mobility.AllModes {
		for seed := uint64(0); seed < 3; seed++ {
			// Macro rows use controlled radial walks (as in the paper's
			// walking experiments); other modes use generated scenarios.
			if mode == mobility.Macro {
				h := mobility.HeadingAway
				if seed%2 == 0 {
					h = mobility.HeadingToward
				}
				scen := mobility.NewMacroScenario(h, cfg, stats.NewRNG(seed*53+77))
				cm.Add(RunScenario(scen, DefaultPipelineConfig(), seed+31), 6)
				continue
			}
			cm.Add(runMode(mode, seed*53+uint64(mode)*7+6, 20), 6)
		}
	}
	diag := cm.Diagonal()
	for i, m := range mobility.AllModes {
		if diag[i] < 70 {
			t.Errorf("%v diagonal = %.1f%%, want >= 70%%", m, diag[i])
		}
		row := cm.Row(m)
		var sum float64
		for _, v := range row {
			sum += v
		}
		if sum < 99.9 || sum > 100.1 {
			t.Errorf("%v row sums to %.2f%%, want 100%%", m, sum)
		}
	}
}

func TestConfusionMatrixEmptyRow(t *testing.T) {
	var cm ConfusionMatrix
	row := cm.Row(mobility.Static)
	for _, v := range row {
		if v != 0 {
			t.Fatal("empty matrix row should be all zeros")
		}
	}
}

func TestAccuracyEmptyAndWarmup(t *testing.T) {
	if Accuracy(nil, 0) != 0 {
		t.Fatal("empty accuracy should be 0")
	}
	d := []Decision{{Time: 1, State: StateStatic, Truth: StateStatic}}
	if Accuracy(d, 5) != 0 {
		t.Fatal("all-warmup accuracy should be 0")
	}
	if Accuracy(d, 0) != 1 {
		t.Fatal("exact-match accuracy should be 1")
	}
}

func TestHeadingAccuracyIgnoresNonMacro(t *testing.T) {
	d := []Decision{
		{Time: 1, State: StateStatic, Truth: StateStatic},
		{Time: 2, State: StateMacroAway, Truth: StateMacroAway},
		{Time: 3, State: StateMacroToward, Truth: StateMacroAway},
	}
	if got := HeadingAccuracy(d, 0); got != 0.5 {
		t.Fatalf("HeadingAccuracy = %v, want 0.5", got)
	}
}

func TestCircleScenarioClassifiedAsMicro(t *testing.T) {
	// The documented limitation: circling reads as micro.
	cfg := mobility.DefaultSceneConfig()
	cfg.Duration = 25
	scen := mobility.NewCircleScenario(cfg, stats.NewRNG(8))
	d := RunScenario(scen, DefaultPipelineConfig(), 444)
	micro := 0
	total := 0
	for _, dec := range d {
		if dec.Time < 6 {
			continue
		}
		total++
		if dec.State == StateMicro {
			micro++
		}
	}
	if total == 0 || float64(micro)/float64(total) < 0.6 {
		t.Fatalf("circle classified micro in %d/%d decisions", micro, total)
	}
}

func BenchmarkRunScenario(b *testing.B) {
	cfg := mobility.DefaultSceneConfig()
	cfg.Duration = 10
	scen := mobility.NewScenario(mobility.Macro, cfg, stats.NewRNG(1))
	pc := DefaultPipelineConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = RunScenario(scen, pc, uint64(i))
	}
}
