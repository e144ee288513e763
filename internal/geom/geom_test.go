package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPointDist(t *testing.T) {
	if d := Pt(0, 0).Dist(Pt(3, 4)); d != 5 {
		t.Fatalf("Dist = %v, want 5", d)
	}
	if d := Pt(1, 1).Dist(Pt(1, 1)); d != 0 {
		t.Fatalf("self distance = %v", d)
	}
}

func TestPointAddSub(t *testing.T) {
	p := Pt(1, 2).Add(Vec(3, 4))
	if p != Pt(4, 6) {
		t.Fatalf("Add = %v", p)
	}
	v := Pt(4, 6).Sub(Pt(1, 2))
	if v != Vec(3, 4) {
		t.Fatalf("Sub = %v", v)
	}
}

func TestLerp(t *testing.T) {
	p := Pt(0, 0).Lerp(Pt(10, 20), 0.5)
	if p != Pt(5, 10) {
		t.Fatalf("Lerp = %v", p)
	}
	if q := Pt(1, 1).Lerp(Pt(2, 2), 0); q != Pt(1, 1) {
		t.Fatalf("Lerp(0) = %v", q)
	}
	if q := Pt(1, 1).Lerp(Pt(2, 2), 1); q != Pt(2, 2) {
		t.Fatalf("Lerp(1) = %v", q)
	}
}

func TestVectorOps(t *testing.T) {
	v := Vec(3, 4)
	if v.Len() != 5 {
		t.Fatalf("Len = %v", v.Len())
	}
	if s := Vec(1, 2).Scale(3); s != Vec(3, 6) {
		t.Fatalf("Scale = %v", s)
	}
}

func TestVectorAngle(t *testing.T) {
	if a := Vec(1, 0).Angle(); !approx(a, 0) {
		t.Fatalf("angle of +x = %v", a)
	}
	if a := Vec(0, 1).Angle(); !approx(a, math.Pi/2) {
		t.Fatalf("angle of +y = %v", a)
	}
}

func TestFromPolarRoundTrip(t *testing.T) {
	f := func(lenRaw, angRaw uint16) bool {
		length := float64(lenRaw)/100 + 0.01
		angle := (float64(angRaw)/65535*2 - 1) * math.Pi * 0.999
		v := FromPolar(length, angle)
		return math.Abs(v.Len()-length) < 1e-9 && math.Abs(v.Angle()-angle) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSegment(t *testing.T) {
	s := Segment{Pt(0, 0), Pt(10, 0)}
	if s.Len() != 10 {
		t.Fatalf("Len = %v", s.Len())
	}
	if p := s.At(0.3); p != Pt(3, 0) {
		t.Fatalf("At = %v", p)
	}
}

func TestPathLenAndAt(t *testing.T) {
	p := NewPath(Pt(0, 0), Pt(10, 0), Pt(10, 10))
	if p.Len() != 20 {
		t.Fatalf("Len = %v", p.Len())
	}
	if q := p.At(5); q != Pt(5, 0) {
		t.Fatalf("At(5) = %v", q)
	}
	if q := p.At(15); q != Pt(10, 5) {
		t.Fatalf("At(15) = %v", q)
	}
	if q := p.At(-1); q != Pt(0, 0) {
		t.Fatalf("At(-1) = %v", q)
	}
	if q := p.At(100); q != Pt(10, 10) {
		t.Fatalf("At(100) = %v", q)
	}
}

func TestPathEmptyAndSingle(t *testing.T) {
	if q := NewPath().At(5); q != Pt(0, 0) {
		t.Fatalf("empty path At = %v", q)
	}
	if q := NewPath(Pt(3, 3)).At(5); q != Pt(3, 3) {
		t.Fatalf("single path At = %v", q)
	}
}

func TestPathAtContinuityProperty(t *testing.T) {
	// Walking the path in small steps never jumps more than the step size.
	p := NewPath(Pt(0, 0), Pt(5, 0), Pt(5, 5), Pt(0, 5))
	f := func(dRaw uint16) bool {
		d := float64(dRaw) / 65535 * p.Len()
		step := 0.01
		a := p.At(d)
		b := p.At(d + step)
		return a.Dist(b) <= step+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestRect(t *testing.T) {
	r := Rect{0, 0, 10, 5}
	if !r.Contains(Pt(5, 2)) || r.Contains(Pt(11, 2)) || r.Contains(Pt(5, -1)) {
		t.Fatal("Contains misbehaves")
	}
	if c := r.ClampPoint(Pt(20, -3)); c != Pt(10, 0) {
		t.Fatalf("ClampPoint = %v", c)
	}
	if r.Width() != 10 || r.Height() != 5 {
		t.Fatalf("dims = %v x %v", r.Width(), r.Height())
	}
	if r.Center() != Pt(5, 2.5) {
		t.Fatalf("Center = %v", r.Center())
	}
}

func TestPointString(t *testing.T) {
	if s := Pt(1.5, -2).String(); s != "(1.50, -2.00)" {
		t.Fatalf("String = %q", s)
	}
}

func TestRayExit(t *testing.T) {
	r := Rect{0, 0, 10, 5}
	if d := r.RayExit(Pt(5, 2.5), Vec(1, 0)); !approx(d, 5) {
		t.Fatalf("RayExit +x = %v, want 5", d)
	}
	if d := r.RayExit(Pt(5, 2.5), Vec(-1, 0)); !approx(d, 5) {
		t.Fatalf("RayExit -x = %v, want 5", d)
	}
	if d := r.RayExit(Pt(5, 2.5), Vec(0, 1)); !approx(d, 2.5) {
		t.Fatalf("RayExit +y = %v, want 2.5", d)
	}
	// Diagonal: limited by the nearer wall.
	if d := r.RayExit(Pt(9, 2.5), FromPolar(1, 0)); !approx(d, 1) {
		t.Fatalf("RayExit near wall = %v, want 1", d)
	}
	// Outside the rect.
	if d := r.RayExit(Pt(20, 2), Vec(1, 0)); d != 0 {
		t.Fatalf("RayExit outside = %v, want 0", d)
	}
	// Zero direction never exits.
	if d := r.RayExit(Pt(5, 2), Vec(0, 0)); !math.IsInf(d, 1) {
		t.Fatalf("RayExit zero dir = %v, want +Inf", d)
	}
}

func TestRayExitEndpointOnBoundaryProperty(t *testing.T) {
	r := Rect{0, 0, 50, 30}
	f := func(xRaw, yRaw, angRaw uint16) bool {
		p := Pt(float64(xRaw)/65535*50, float64(yRaw)/65535*30)
		ang := float64(angRaw) / 65535 * 2 * math.Pi
		dir := FromPolar(1, ang)
		d := r.RayExit(p, dir)
		if math.IsInf(d, 1) {
			return false
		}
		exit := p.Add(dir.Scale(d))
		const eps = 1e-9
		onX := math.Abs(exit.X-r.MinX) < eps || math.Abs(exit.X-r.MaxX) < eps
		onY := math.Abs(exit.Y-r.MinY) < eps || math.Abs(exit.Y-r.MaxY) < eps
		return (onX || onY) && r.Contains(Pt(math.Min(math.Max(exit.X, r.MinX), r.MaxX), math.Min(math.Max(exit.Y, r.MinY), r.MaxY)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
