package mobility

import (
	"fmt"
	"math"

	"mobiwlan/internal/geom"
	"mobiwlan/internal/stats"
)

// ScattererTrack is one reflector in the environment: its trajectory and
// the relative amplitude of the signal path bounced off it.
type ScattererTrack struct {
	Traj         Trajectory
	Reflectivity float64
}

// Scenario bundles everything the channel simulator needs for one
// experiment run: the client trajectory, the scatterer field, and the
// ground-truth labels.
type Scenario struct {
	Label      Mode
	Heading    Heading // intended heading for macro scenarios
	Client     Trajectory
	Scatterers []ScattererTrack
	Duration   float64    // seconds
	AP         geom.Point // reference AP for ground truth
}

// GroundTruth returns the true (mode, heading relative to the scenario AP)
// at time t. For macro scenarios the heading is measured from the actual
// trajectory over a 1-second horizon, so ping-pong walks report the correct
// instantaneous direction.
func (s *Scenario) GroundTruth(t float64) (Mode, Heading) {
	if s.Label != Macro {
		return s.Label, HeadingNone
	}
	return Macro, RelativeHeading(s.Client, s.AP, t, 1.0, 0.05)
}

// SceneConfig parameterizes scenario generation.
type SceneConfig struct {
	// Bounds is the floor-plan rectangle scatterers and walks stay within.
	Bounds geom.Rect
	// AP is the access point position (reference for ground truth and for
	// placing macro walks).
	AP geom.Point
	// StaticScatterers is the number of fixed reflectors (walls, furniture).
	StaticScatterers int
	// MovingScatterers is the number of moving reflectors used by
	// environmental scenarios (people walking nearby).
	MovingScatterers int
	// Duration is the scenario length in seconds.
	Duration float64
	// WalkSpeed is the macro walking speed in m/s.
	WalkSpeed float64
	// MicroRadius is the micro-mobility confinement radius in meters.
	MicroRadius float64
	// EnvIntensity scales the reflectivity of moving scatterers in
	// environmental scenarios: 1.0 is a typical cafeteria, <1 models a few
	// distant movers ("weak"), >1 models many strong movers nearby
	// ("strong"), matching the paper's Fig. 2(b) weak/strong split.
	EnvIntensity float64
}

// DefaultSceneConfig mirrors the paper's office setting: a 50x30 m floor,
// an AP in the interior, a dozen static reflectors, ~1.4 m/s walking.
func DefaultSceneConfig() SceneConfig {
	return SceneConfig{
		Bounds:           geom.Rect{MinX: 0, MinY: 0, MaxX: 50, MaxY: 30},
		AP:               geom.Pt(25, 15),
		StaticScatterers: 12,
		MovingScatterers: 4,
		Duration:         30,
		WalkSpeed:        1.4,
		MicroRadius:      0.5,
		EnvIntensity:     1,
	}
}

// randomClientSpot picks a client location between 3 and ~20 m from the AP.
func randomClientSpot(cfg SceneConfig, rng *stats.RNG) geom.Point {
	for i := 0; i < 64; i++ {
		p := geom.Pt(
			rng.Range(cfg.Bounds.MinX+1, cfg.Bounds.MaxX-1),
			rng.Range(cfg.Bounds.MinY+1, cfg.Bounds.MaxY-1),
		)
		if d := p.Dist(cfg.AP); d >= 3 && d <= 20 {
			return p
		}
	}
	return cfg.Bounds.Center().Add(geom.Vec(5, 0))
}

// staticScatterers places fixed reflectors: n furniture-like scatterers
// uniformly over the floor plus two wall-mounted reflectors per wall.
// The wall reflectors matter: they guarantee multipath arriving from every
// direction, so a walking client's channel decorrelates regardless of
// heading (without them, a client walking toward a wall sees all paths
// from behind and the CSI profile freezes — unlike any real building).
func staticScatterers(cfg SceneConfig, n int, rng *stats.RNG) []ScattererTrack {
	out := make([]ScattererTrack, 0, n+8)
	for i := 0; i < n; i++ {
		p := geom.Pt(
			rng.Range(cfg.Bounds.MinX, cfg.Bounds.MaxX),
			rng.Range(cfg.Bounds.MinY, cfg.Bounds.MaxY),
		)
		out = append(out, ScattererTrack{
			Traj:         Fixed(p),
			Reflectivity: rng.Range(0.2, 0.7),
		})
	}
	b := cfg.Bounds
	walls := []geom.Point{
		geom.Pt(rng.Range(b.MinX, b.MaxX), b.MinY),
		geom.Pt(rng.Range(b.MinX, b.MaxX), b.MinY),
		geom.Pt(rng.Range(b.MinX, b.MaxX), b.MaxY),
		geom.Pt(rng.Range(b.MinX, b.MaxX), b.MaxY),
		geom.Pt(b.MinX, rng.Range(b.MinY, b.MaxY)),
		geom.Pt(b.MinX, rng.Range(b.MinY, b.MaxY)),
		geom.Pt(b.MaxX, rng.Range(b.MinY, b.MaxY)),
		geom.Pt(b.MaxX, rng.Range(b.MinY, b.MaxY)),
	}
	for _, w := range walls {
		out = append(out, ScattererTrack{
			Traj:         Fixed(w),
			Reflectivity: rng.Range(0.4, 0.8),
		})
	}
	return out
}

// movingScatterers places n people-like reflectors that wander near the
// AP-client link (anchor): movement on the far side of the floor barely
// perturbs the channel and would not constitute environmental mobility in
// the paper's sense (a busy cafeteria around the client). People are weak
// reflectors at 5.8 GHz (mostly absorbing), so their reflectivity is well
// below that of walls and furniture; EnvIntensity scales it for the
// paper's weak/strong environmental split.
func movingScatterers(cfg SceneConfig, anchor geom.Point, n int, rng *stats.RNG) []ScattererTrack {
	intensity := cfg.EnvIntensity
	if intensity <= 0 {
		intensity = 1
	}
	out := make([]ScattererTrack, 0, n)
	for i := 0; i < n; i++ {
		var start geom.Point
		for try := 0; ; try++ {
			start = anchor.Add(geom.FromPolar(rng.Range(1, 10), rng.Range(0, 2*math.Pi)))
			if cfg.Bounds.Contains(start) || try > 16 {
				start = cfg.Bounds.ClampPoint(start)
				break
			}
		}
		path := RandomWalkPath(start, cfg.Bounds, 6, 2, 8, rng)
		refl := stats.Clamp(rng.Range(0.08, 0.22)*intensity, 0.01, 0.9)
		out = append(out, ScattererTrack{
			Traj: WaypointWalk{
				Path:     path,
				Speed:    rng.Range(0.4, 1.2),
				PingPong: true,
			},
			Reflectivity: refl,
		})
	}
	return out
}

// NewScenario generates a ground-truth-labeled scenario of the requested
// mode. Macro scenarios get a random multi-leg walk; use NewMacroScenario
// for walks with a controlled heading.
func NewScenario(mode Mode, cfg SceneConfig, rng *stats.RNG) *Scenario {
	s := &Scenario{
		Label:      mode,
		Heading:    HeadingNone,
		Duration:   cfg.Duration,
		AP:         cfg.AP,
		Scatterers: staticScatterers(cfg, cfg.StaticScatterers, rng.Split(1)),
	}
	clientRNG := rng.Split(2)
	spot := randomClientSpot(cfg, clientRNG)
	switch mode {
	case Static:
		s.Client = Fixed(spot)
	case Environmental:
		s.Client = Fixed(spot)
		anchor := spot.Lerp(cfg.AP, 0.5)
		s.Scatterers = append(s.Scatterers,
			movingScatterers(cfg, anchor, cfg.MovingScatterers, rng.Split(3))...)
	case Micro:
		s.Client = NewConfinedJitter(spot, cfg.MicroRadius,
			clientRNG.Range(0.3, 1.0), clientRNG)
	case Macro:
		path := RandomWalkPath(spot, cfg.Bounds, 5, 6, 15, clientRNG)
		s.Client = WaypointWalk{Path: path, Speed: cfg.WalkSpeed, PingPong: true}
	}
	return s
}

// NewMacroScenario generates a macro-mobility walk with a controlled
// heading: a straight walk directly toward or away from the AP, starting
// far from (toward) or near (away) the AP. The straight-line geometry makes
// the ground-truth heading constant for the whole duration.
func NewMacroScenario(heading Heading, cfg SceneConfig, rng *stats.RNG) *Scenario {
	s := &Scenario{
		Label:      Macro,
		Heading:    heading,
		Duration:   cfg.Duration,
		AP:         cfg.AP,
		Scatterers: staticScatterers(cfg, cfg.StaticScatterers, rng.Split(1)),
	}
	clientRNG := rng.Split(2)
	walkLen := cfg.WalkSpeed * cfg.Duration
	// Choose a radial corridor long enough for the whole walk: sample
	// candidate angles and keep the first whose corridor (from 3 m outside
	// the AP to the wall, minus a margin) fits; otherwise use the longest
	// corridor found. Without this, long walks would hit a wall, stall,
	// and corrupt the ground truth.
	bestAngle, bestLen := 0.0, -1.0
	for i := 0; i < 48; i++ {
		ang := clientRNG.Range(0, 6.283185)
		origin := cfg.AP.Add(geom.FromPolar(3, ang))
		if !cfg.Bounds.Contains(origin) {
			continue
		}
		corridor := cfg.Bounds.RayExit(origin, geom.FromPolar(1, ang)) - 0.5
		if corridor > bestLen {
			bestAngle, bestLen = ang, corridor
		}
		if corridor >= walkLen {
			break
		}
	}
	if bestLen < 1 {
		bestAngle, bestLen = cfg.Bounds.Center().Sub(cfg.AP).Angle(), 1
	}
	length := math.Min(walkLen, bestLen)
	near := cfg.AP.Add(geom.FromPolar(3, bestAngle))
	far := near.Add(geom.FromPolar(length, bestAngle))
	if heading == HeadingAway {
		s.Client = WaypointWalk{Path: geom.NewPath(near, far), Speed: cfg.WalkSpeed}
	} else {
		s.Client = WaypointWalk{Path: geom.NewPath(far, near), Speed: cfg.WalkSpeed}
	}
	return s
}

// NewCircleScenario generates the paper's §9 limitation case: a client
// walking a circle around the AP at walking speed. Ground truth is macro,
// but ToF shows no monotonic trend.
func NewCircleScenario(cfg SceneConfig, rng *stats.RNG) *Scenario {
	return &Scenario{
		Label:      Macro,
		Heading:    HeadingNone,
		Duration:   cfg.Duration,
		AP:         cfg.AP,
		Scatterers: staticScatterers(cfg, cfg.StaticScatterers, rng.Split(1)),
		Client: CircleWalk{
			Center:     cfg.AP,
			Radius:     8,
			Speed:      cfg.WalkSpeed,
			StartAngle: rng.Split(2).Range(0, 6.283185),
		},
	}
}

// NamedScenario builds, in the default scene, the duration-second
// scenario a command-line mode name selects: one of the four classes
// ("env" is short for "environmental"), a macro walk "toward" or "away"
// from the AP, or a "circle" around it.
func NamedScenario(name string, duration float64, rng *stats.RNG) (*Scenario, error) {
	cfg := DefaultSceneConfig()
	cfg.Duration = duration
	switch name {
	case "static":
		return NewScenario(Static, cfg, rng), nil
	case "environmental", "env":
		return NewScenario(Environmental, cfg, rng), nil
	case "micro":
		return NewScenario(Micro, cfg, rng), nil
	case "macro":
		return NewScenario(Macro, cfg, rng), nil
	case "toward":
		return NewMacroScenario(HeadingToward, cfg, rng), nil
	case "away":
		return NewMacroScenario(HeadingAway, cfg, rng), nil
	case "circle":
		return NewCircleScenario(cfg, rng), nil
	default:
		return nil, fmt.Errorf("unknown mode %q (static|env|micro|macro|toward|away|circle)", name)
	}
}
