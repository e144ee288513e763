package mobility

import (
	"math"
	"testing"
	"testing/quick"

	"mobiwlan/internal/geom"
	"mobiwlan/internal/stats"
)

func TestModeString(t *testing.T) {
	want := map[Mode]string{
		Static: "static", Environmental: "environmental",
		Micro: "micro", Macro: "macro", Mode(99): "mode(99)",
	}
	for m, s := range want {
		if m.String() != s {
			t.Errorf("Mode(%d).String() = %q, want %q", int(m), m.String(), s)
		}
	}
}

func TestHeadingString(t *testing.T) {
	if HeadingToward.String() != "toward" || HeadingAway.String() != "away" ||
		HeadingNone.String() != "none" {
		t.Error("Heading.String misbehaves")
	}
}

func TestFixed(t *testing.T) {
	f := Fixed(geom.Pt(3, 4))
	if f.At(0) != geom.Pt(3, 4) || f.At(100) != geom.Pt(3, 4) {
		t.Fatal("Fixed trajectory moved")
	}
}

func TestWaypointWalkConstantSpeed(t *testing.T) {
	w := WaypointWalk{Path: geom.NewPath(geom.Pt(0, 0), geom.Pt(10, 0)), Speed: 2}
	if p := w.At(0); p != geom.Pt(0, 0) {
		t.Fatalf("At(0) = %v", p)
	}
	if p := w.At(2.5); p != geom.Pt(5, 0) {
		t.Fatalf("At(2.5) = %v", p)
	}
	// Without ping-pong, the walker stops at the end.
	if p := w.At(100); p != geom.Pt(10, 0) {
		t.Fatalf("At(100) = %v", p)
	}
	if p := w.At(-5); p != geom.Pt(0, 0) {
		t.Fatalf("At(-5) = %v", p)
	}
}

func TestWaypointWalkPingPong(t *testing.T) {
	w := WaypointWalk{
		Path:     geom.NewPath(geom.Pt(0, 0), geom.Pt(10, 0)),
		Speed:    1,
		PingPong: true,
	}
	if p := w.At(10); p != geom.Pt(10, 0) {
		t.Fatalf("At(10) = %v", p)
	}
	if p := w.At(15); p != geom.Pt(5, 0) {
		t.Fatalf("At(15) = %v (should be walking back)", p)
	}
	if p := w.At(20); p != geom.Pt(0, 0) {
		t.Fatalf("At(20) = %v", p)
	}
	if p := w.At(25); p != geom.Pt(5, 0) {
		t.Fatalf("At(25) = %v", p)
	}
}

func TestWaypointWalkEmptyPath(t *testing.T) {
	w := WaypointWalk{Path: geom.NewPath(geom.Pt(1, 2)), Speed: 1}
	if p := w.At(5); p != geom.Pt(1, 2) {
		t.Fatalf("degenerate walk At = %v", p)
	}
}

func TestConfinedJitterStaysWithinRadius(t *testing.T) {
	rng := stats.NewRNG(7)
	center := geom.Pt(10, 10)
	j := NewConfinedJitter(center, 0.5, 0.8, rng)
	maxDist := 0.0
	for ti := 0; ti < 10000; ti++ {
		p := j.At(float64(ti) * 0.01)
		if d := p.Dist(center); d > maxDist {
			maxDist = d
		}
	}
	// Per-axis displacement is bounded by radius, so the distance is
	// bounded by radius*sqrt(2).
	if maxDist > 0.5*math.Sqrt2+1e-9 {
		t.Fatalf("jitter escaped confinement: max dist %v", maxDist)
	}
	if maxDist < 0.1 {
		t.Fatalf("jitter barely moves: max dist %v", maxDist)
	}
}

func TestConfinedJitterActuallyMoves(t *testing.T) {
	rng := stats.NewRNG(11)
	j := NewConfinedJitter(geom.Pt(0, 0), 0.5, 0.8, rng)
	// Measure mean speed over 10 s.
	var total float64
	prev := j.At(0)
	const dt = 0.02
	for ti := 1; ti <= 500; ti++ {
		p := j.At(float64(ti) * dt)
		total += p.Dist(prev)
		prev = p
	}
	speed := total / 10
	if speed < 0.05 || speed > 3 {
		t.Fatalf("mean jitter speed = %v m/s, want gesture-like (0.05..3)", speed)
	}
}

func TestConfinedJitterDefaultActivity(t *testing.T) {
	j := NewConfinedJitter(geom.Pt(0, 0), 0.5, 0, stats.NewRNG(1))
	if j.At(1) == j.At(2) {
		t.Fatal("zero-activity fallback should still move")
	}
}

func TestCircleWalkRadiusInvariant(t *testing.T) {
	c := CircleWalk{Center: geom.Pt(5, 5), Radius: 8, Speed: 1.4}
	f := func(tRaw uint16) bool {
		p := c.At(float64(tRaw) / 100)
		return math.Abs(p.Dist(c.Center)-8) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCircleWalkZeroRadius(t *testing.T) {
	c := CircleWalk{Center: geom.Pt(5, 5), Radius: 0, Speed: 1}
	if c.At(3) != geom.Pt(5, 5) {
		t.Fatal("zero-radius circle should stay at center")
	}
}

func TestOffset(t *testing.T) {
	o := Offset{Base: Fixed(geom.Pt(1, 1)), By: geom.Vec(2, 3)}
	if o.At(0) != geom.Pt(3, 4) {
		t.Fatalf("Offset.At = %v", o.At(0))
	}
}

func TestRandomWalkPathStaysInBounds(t *testing.T) {
	bounds := geom.Rect{MinX: 0, MinY: 0, MaxX: 50, MaxY: 30}
	for seed := uint64(0); seed < 20; seed++ {
		rng := stats.NewRNG(seed)
		p := RandomWalkPath(geom.Pt(25, 15), bounds, 8, 3, 10, rng)
		if len(p.Waypoints) != 9 {
			t.Fatalf("seed %d: %d waypoints, want 9", seed, len(p.Waypoints))
		}
		for i, wp := range p.Waypoints {
			if !bounds.Contains(wp) {
				t.Fatalf("seed %d: waypoint %d out of bounds: %v", seed, i, wp)
			}
		}
		if p.Len() < 3*8*0.5 {
			t.Fatalf("seed %d: path suspiciously short: %v m", seed, p.Len())
		}
	}
}

func TestRelativeHeading(t *testing.T) {
	ap := geom.Pt(0, 0)
	away := WaypointWalk{Path: geom.NewPath(geom.Pt(1, 0), geom.Pt(20, 0)), Speed: 1}
	if h := RelativeHeading(away, ap, 0, 1, 0.05); h != HeadingAway {
		t.Fatalf("away heading = %v", h)
	}
	toward := WaypointWalk{Path: geom.NewPath(geom.Pt(20, 0), geom.Pt(1, 0)), Speed: 1}
	if h := RelativeHeading(toward, ap, 0, 1, 0.05); h != HeadingToward {
		t.Fatalf("toward heading = %v", h)
	}
	still := Fixed(geom.Pt(5, 5))
	if h := RelativeHeading(still, ap, 0, 1, 0.05); h != HeadingNone {
		t.Fatalf("static heading = %v", h)
	}
}

func TestPhasedTrajectory(t *testing.T) {
	p := Phased{Phases: []Phase{
		{Until: 10, Traj: Fixed(geom.Pt(1, 1))},
		{Until: 20, Traj: WaypointWalk{
			Path:  geom.NewPath(geom.Pt(1, 1), geom.Pt(11, 1)),
			Speed: 1,
		}},
	}}
	if p.At(5) != geom.Pt(1, 1) {
		t.Fatalf("phase 1 At(5) = %v", p.At(5))
	}
	// Phase 2 time is re-based: at t=15 the walker has moved 5 m.
	if p.At(15) != geom.Pt(6, 1) {
		t.Fatalf("phase 2 At(15) = %v", p.At(15))
	}
	// Last phase extends past its bound.
	if p.At(25) != geom.Pt(11, 1) {
		t.Fatalf("beyond-end At(25) = %v", p.At(25))
	}
}

func TestPhasedEmpty(t *testing.T) {
	var p Phased
	if p.At(1) != geom.Pt(0, 0) {
		t.Fatal("empty phased should return origin")
	}
}
