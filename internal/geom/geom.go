// Package geom provides the 2-D geometry primitives used by the mobility
// models, the multipath channel, and the roaming floor plan: points,
// vectors, headings, and waypoint paths.
//
// Coordinates are in meters; angles are in radians measured counterclockwise
// from the positive x axis.
package geom

import (
	"fmt"
	"math"
)

// Point is a position in the 2-D plane, in meters.
type Point struct {
	X, Y float64
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.2f, %.2f)", p.X, p.Y) }

// Add returns p translated by the vector v.
func (p Point) Add(v Vector) Point { return Point{p.X + v.DX, p.Y + v.DY} }

// Sub returns the vector from q to p.
func (p Point) Sub(q Point) Vector { return Vector{p.X - q.X, p.Y - q.Y} }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Lerp linearly interpolates between p (t=0) and q (t=1).
func (p Point) Lerp(q Point, t float64) Point {
	return Point{p.X + (q.X-p.X)*t, p.Y + (q.Y-p.Y)*t}
}

// Vector is a displacement in the 2-D plane, in meters.
type Vector struct {
	DX, DY float64
}

// Vec is shorthand for Vector{dx, dy}.
func Vec(dx, dy float64) Vector { return Vector{DX: dx, DY: dy} }

// Scale returns v scaled by s.
func (v Vector) Scale(s float64) Vector { return Vector{v.DX * s, v.DY * s} }

// Len returns the Euclidean norm of v.
func (v Vector) Len() float64 { return math.Hypot(v.DX, v.DY) }

// Angle returns the direction of v in radians in (-pi, pi].
func (v Vector) Angle() float64 { return math.Atan2(v.DY, v.DX) }

// FromPolar builds a vector from a length and an angle in radians.
func FromPolar(length, angle float64) Vector {
	return Vector{length * math.Cos(angle), length * math.Sin(angle)}
}

// Segment is a directed line segment from A to B.
type Segment struct {
	A, B Point
}

// Len returns the segment length.
func (s Segment) Len() float64 { return s.A.Dist(s.B) }

// At returns the point a fraction t (0..1) along the segment.
func (s Segment) At(t float64) Point { return s.A.Lerp(s.B, t) }

// Path is a polyline through an ordered list of waypoints.
type Path struct {
	Waypoints []Point
}

// NewPath builds a path through the given waypoints.
func NewPath(pts ...Point) Path { return Path{Waypoints: pts} }

// Len returns the total polyline length in meters.
func (p Path) Len() float64 {
	var total float64
	for i := 1; i < len(p.Waypoints); i++ {
		total += p.Waypoints[i-1].Dist(p.Waypoints[i])
	}
	return total
}

// At returns the point at arc-length distance d from the start of the path.
// Distances beyond the path clamp to the endpoints.
func (p Path) At(d float64) Point {
	if len(p.Waypoints) == 0 {
		return Point{}
	}
	if d <= 0 || len(p.Waypoints) == 1 {
		return p.Waypoints[0]
	}
	for i := 1; i < len(p.Waypoints); i++ {
		seg := Segment{p.Waypoints[i-1], p.Waypoints[i]}
		l := seg.Len()
		if d <= l {
			if l == 0 {
				return seg.A
			}
			return seg.At(d / l)
		}
		d -= l
	}
	return p.Waypoints[len(p.Waypoints)-1]
}

// Rect is an axis-aligned rectangle, used as a floor-plan boundary.
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// Contains reports whether p lies inside or on the boundary of r.
func (r Rect) Contains(p Point) bool {
	return p.X >= r.MinX && p.X <= r.MaxX && p.Y >= r.MinY && p.Y <= r.MaxY
}

// ClampPoint returns p moved to the nearest point inside r.
func (r Rect) ClampPoint(p Point) Point {
	x := math.Max(r.MinX, math.Min(r.MaxX, p.X))
	y := math.Max(r.MinY, math.Min(r.MaxY, p.Y))
	return Point{x, y}
}

// Width returns the x extent of r.
func (r Rect) Width() float64 { return r.MaxX - r.MinX }

// Height returns the y extent of r.
func (r Rect) Height() float64 { return r.MaxY - r.MinY }

// Center returns the center point of r.
func (r Rect) Center() Point {
	return Point{(r.MinX + r.MaxX) / 2, (r.MinY + r.MaxY) / 2}
}

// RayExit returns the distance from p along the unit-direction dir to the
// boundary of r. It returns 0 if p is outside r, and +Inf if dir is the
// zero vector (the ray never exits).
func (r Rect) RayExit(p Point, dir Vector) float64 {
	if !r.Contains(p) {
		return 0
	}
	exit := math.Inf(1)
	if dir.DX > 0 {
		exit = math.Min(exit, (r.MaxX-p.X)/dir.DX)
	} else if dir.DX < 0 {
		exit = math.Min(exit, (r.MinX-p.X)/dir.DX)
	}
	if dir.DY > 0 {
		exit = math.Min(exit, (r.MaxY-p.Y)/dir.DY)
	} else if dir.DY < 0 {
		exit = math.Min(exit, (r.MinY-p.Y)/dir.DY)
	}
	return exit
}
