package mobility

import (
	"testing"

	"mobiwlan/internal/geom"
	"mobiwlan/internal/stats"
)

func TestDefaultSceneConfigSane(t *testing.T) {
	cfg := DefaultSceneConfig()
	if !cfg.Bounds.Contains(cfg.AP) {
		t.Fatal("AP outside bounds")
	}
	if cfg.WalkSpeed <= 0 || cfg.Duration <= 0 || cfg.MicroRadius <= 0 {
		t.Fatal("non-positive config values")
	}
}

func TestNewScenarioModes(t *testing.T) {
	cfg := DefaultSceneConfig()
	for _, mode := range AllModes {
		s := NewScenario(mode, cfg, stats.NewRNG(42))
		if s.Label != mode {
			t.Errorf("label = %v, want %v", s.Label, mode)
		}
		if s.Client == nil {
			t.Fatalf("%v: nil client trajectory", mode)
		}
		if len(s.Scatterers) < cfg.StaticScatterers {
			t.Errorf("%v: %d scatterers, want >= %d", mode, len(s.Scatterers), cfg.StaticScatterers)
		}
		p := s.Client.At(0)
		if !cfg.Bounds.Contains(p) {
			t.Errorf("%v: client starts out of bounds at %v", mode, p)
		}
	}
}

func TestNewScenarioDeterminism(t *testing.T) {
	cfg := DefaultSceneConfig()
	a := NewScenario(Macro, cfg, stats.NewRNG(5))
	b := NewScenario(Macro, cfg, stats.NewRNG(5))
	for ti := 0; ti < 100; ti++ {
		tt := float64(ti) * 0.3
		if a.Client.At(tt) != b.Client.At(tt) {
			t.Fatalf("same-seed scenarios diverge at t=%v", tt)
		}
	}
	c := NewScenario(Macro, cfg, stats.NewRNG(6))
	if a.Client.At(1) == c.Client.At(1) && a.Client.At(2) == c.Client.At(2) {
		t.Fatal("different-seed scenarios produced identical walks")
	}
}

func TestStaticScenarioDoesNotMove(t *testing.T) {
	s := NewScenario(Static, DefaultSceneConfig(), stats.NewRNG(1))
	p0 := s.Client.At(0)
	if s.Client.At(10) != p0 {
		t.Fatal("static client moved")
	}
	// All scatterers static too.
	for i, sc := range s.Scatterers {
		if sc.Traj.At(0) != sc.Traj.At(10) {
			t.Fatalf("scatterer %d moved in a static scenario", i)
		}
	}
}

func TestEnvironmentalScenarioHasMovingScatterers(t *testing.T) {
	cfg := DefaultSceneConfig()
	s := NewScenario(Environmental, cfg, stats.NewRNG(2))
	if s.Client.At(0) != s.Client.At(10) {
		t.Fatal("environmental client moved")
	}
	moving := 0
	for _, sc := range s.Scatterers {
		if sc.Traj.At(0).Dist(sc.Traj.At(10)) > 0.1 {
			moving++
		}
	}
	if moving < cfg.MovingScatterers-1 {
		t.Fatalf("only %d moving scatterers, want ~%d", moving, cfg.MovingScatterers)
	}
}

func TestMicroScenarioConfined(t *testing.T) {
	cfg := DefaultSceneConfig()
	s := NewScenario(Micro, cfg, stats.NewRNG(3))
	start := s.Client.At(0)
	maxD := 0.0
	for ti := 0; ti < 3000; ti++ {
		d := s.Client.At(float64(ti) * 0.01).Dist(start)
		if d > maxD {
			maxD = d
		}
	}
	if maxD > 4*cfg.MicroRadius {
		t.Fatalf("micro client wandered %v m", maxD)
	}
	if maxD < 0.05 {
		t.Fatal("micro client barely moved")
	}
}

func TestMacroScenarioCoversDistance(t *testing.T) {
	cfg := DefaultSceneConfig()
	s := NewScenario(Macro, cfg, stats.NewRNG(4))
	var travel float64
	prev := s.Client.At(0)
	for ti := 1; ti <= 300; ti++ {
		p := s.Client.At(float64(ti) * 0.1)
		travel += p.Dist(prev)
		prev = p
	}
	// 30 s at 1.4 m/s should cover ~42 m.
	if travel < 30 {
		t.Fatalf("macro client covered only %v m in 30 s", travel)
	}
}

func TestNewMacroScenarioHeadings(t *testing.T) {
	cfg := DefaultSceneConfig()
	for seed := uint64(0); seed < 10; seed++ {
		away := NewMacroScenario(HeadingAway, cfg, stats.NewRNG(seed))
		d0 := away.Client.At(0).Dist(cfg.AP)
		d1 := away.Client.At(10).Dist(cfg.AP)
		if d1 <= d0 {
			t.Errorf("seed %d: away walk distance %v -> %v", seed, d0, d1)
		}
		toward := NewMacroScenario(HeadingToward, cfg, stats.NewRNG(seed))
		d0 = toward.Client.At(0).Dist(cfg.AP)
		d1 = toward.Client.At(10).Dist(cfg.AP)
		if d1 >= d0 {
			t.Errorf("seed %d: toward walk distance %v -> %v", seed, d0, d1)
		}
	}
}

func TestGroundTruth(t *testing.T) {
	cfg := DefaultSceneConfig()
	s := NewScenario(Static, cfg, stats.NewRNG(1))
	if m, h := s.GroundTruth(5); m != Static || h != HeadingNone {
		t.Fatalf("static ground truth = %v/%v", m, h)
	}
	away := NewMacroScenario(HeadingAway, cfg, stats.NewRNG(2))
	if m, h := away.GroundTruth(2); m != Macro || h != HeadingAway {
		t.Fatalf("away ground truth = %v/%v", m, h)
	}
	toward := NewMacroScenario(HeadingToward, cfg, stats.NewRNG(2))
	if m, h := toward.GroundTruth(2); m != Macro || h != HeadingToward {
		t.Fatalf("toward ground truth = %v/%v", m, h)
	}
}

func TestNewCircleScenario(t *testing.T) {
	cfg := DefaultSceneConfig()
	s := NewCircleScenario(cfg, stats.NewRNG(9))
	if s.Label != Macro {
		t.Fatalf("circle label = %v", s.Label)
	}
	// Distance to AP is constant, so ground-truth heading is none.
	if _, h := s.GroundTruth(3); h != HeadingNone {
		t.Fatalf("circle heading = %v, want none", h)
	}
	d0 := s.Client.At(0).Dist(cfg.AP)
	for ti := 1; ti < 100; ti++ {
		d := s.Client.At(float64(ti) * 0.3).Dist(cfg.AP)
		if diff := d - d0; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("circle distance drifted: %v vs %v", d, d0)
		}
	}
	// But the client genuinely moves.
	if s.Client.At(0).Dist(s.Client.At(5)) < 1 {
		t.Fatal("circle client barely moved")
	}
}

func TestRandomClientSpotWithinRange(t *testing.T) {
	cfg := DefaultSceneConfig()
	for seed := uint64(0); seed < 50; seed++ {
		p := randomClientSpot(cfg, stats.NewRNG(seed))
		d := p.Dist(cfg.AP)
		if d < 3 || d > 20 {
			t.Fatalf("seed %d: client spot at distance %v", seed, d)
		}
		if !cfg.Bounds.Contains(p) {
			t.Fatalf("seed %d: spot out of bounds", seed)
		}
	}
}

func TestScatterersHaveSaneReflectivity(t *testing.T) {
	s := NewScenario(Environmental, DefaultSceneConfig(), stats.NewRNG(8))
	for i, sc := range s.Scatterers {
		if sc.Reflectivity <= 0 || sc.Reflectivity > 1 {
			t.Fatalf("scatterer %d reflectivity = %v", i, sc.Reflectivity)
		}
	}
}

var _ = geom.Pt // keep geom imported even if assertions change

func TestNamedScenario(t *testing.T) {
	cases := []struct {
		name    string
		label   Mode
		heading Heading
	}{
		{"static", Static, HeadingNone},
		{"env", Environmental, HeadingNone},
		{"environmental", Environmental, HeadingNone},
		{"micro", Micro, HeadingNone},
		{"macro", Macro, HeadingNone},
		{"toward", Macro, HeadingToward},
		{"away", Macro, HeadingAway},
		{"circle", Macro, HeadingNone},
	}
	for _, c := range cases {
		s, err := NamedScenario(c.name, 12, stats.NewRNG(1))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if s.Label != c.label || s.Heading != c.heading || s.Duration != 12 {
			t.Errorf("%s: label %v heading %v duration %v", c.name, s.Label, s.Heading, s.Duration)
		}
	}
	if _, err := NamedScenario("orbit", 12, stats.NewRNG(1)); err == nil {
		t.Fatal("unknown mode accepted")
	}
}
