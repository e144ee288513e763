// Package mobility generates the client and scatterer trajectories that
// drive the wireless channel simulator. It models the paper's four mobility
// classes:
//
//   - Static: the client and the environment are quiet.
//   - Environmental: the client is stationary but people/objects move
//     nearby (the paper's cafeteria-at-lunch scenario).
//   - Micro-mobility: the user handles the device — VoIP call, gaming
//     gestures, pacing inside a cubicle — so the device moves continuously
//     but stays confined within roughly a meter.
//   - Macro-mobility: the user walks from one location to another, covering
//     real distance between turns.
//
// Trajectories are deterministic functions of time seeded from an explicit
// RNG so that experiments are reproducible.
package mobility

import (
	"fmt"
	"math"

	"mobiwlan/internal/geom"
	"mobiwlan/internal/stats"
)

// Mode is the ground-truth mobility class of a scenario.
type Mode int

const (
	// Static: no device motion, no significant environmental motion.
	Static Mode = iota
	// Environmental: no device motion, but moving scatterers nearby.
	Environmental
	// Micro: device motion confined within a small area.
	Micro
	// Macro: device motion that changes the client's location.
	Macro
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Static:
		return "static"
	case Environmental:
		return "environmental"
	case Micro:
		return "micro"
	case Macro:
		return "macro"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// AllModes lists the four ground-truth classes in presentation order.
var AllModes = []Mode{Static, Environmental, Micro, Macro}

// Heading is the macro-mobility direction relative to a reference AP.
type Heading int

const (
	// HeadingNone applies to non-macro modes.
	HeadingNone Heading = iota
	// HeadingToward means the AP-client distance is shrinking.
	HeadingToward
	// HeadingAway means the AP-client distance is growing.
	HeadingAway
)

// String implements fmt.Stringer.
func (h Heading) String() string {
	switch h {
	case HeadingToward:
		return "toward"
	case HeadingAway:
		return "away"
	default:
		return "none"
	}
}

// Trajectory is a time-parameterized position, with t in seconds from the
// start of the scenario.
type Trajectory interface {
	At(t float64) geom.Point
}

// Fixed is a trajectory that never moves.
type Fixed geom.Point

// At implements Trajectory.
func (f Fixed) At(float64) geom.Point { return geom.Point(f) }

// WaypointWalk walks a polyline at constant speed, optionally looping back
// and forth along it (ping-pong) once the end is reached.
type WaypointWalk struct {
	Path  geom.Path
	Speed float64 // meters per second
	// PingPong makes the walker reverse at the ends instead of stopping.
	PingPong bool
}

// At implements Trajectory.
func (w WaypointWalk) At(t float64) geom.Point {
	if t < 0 {
		t = 0
	}
	d := w.Speed * t
	total := w.Path.Len()
	if total == 0 {
		return w.Path.At(0)
	}
	if w.PingPong {
		period := 2 * total
		d = math.Mod(d, period)
		if d > total {
			d = period - d
		}
	}
	return w.Path.At(d)
}

// ConfinedJitter is smooth, band-limited random motion confined around a
// center point — the micro-mobility model. The motion is a sum of
// random-phase sinusoids per axis, which yields natural gesture-like
// movement (typical instantaneous speeds of a few tens of cm/s) that never
// leaves a disc of radius Radius.
type ConfinedJitter struct {
	Center geom.Point
	Radius float64
	comps  [2][]jitterComponent
}

type jitterComponent struct {
	amp, freq, phase float64
}

// NewConfinedJitter builds a jitter trajectory around center with the given
// confinement radius, seeded from rng. Higher activity (0..1] scales the
// motion frequencies: ~0.3 resembles holding a phone during a call, ~1.0
// resembles active gaming gestures.
func NewConfinedJitter(center geom.Point, radius float64, activity float64, rng *stats.RNG) *ConfinedJitter {
	if activity <= 0 {
		activity = 0.5
	}
	j := &ConfinedJitter{Center: center, Radius: radius}
	const nComp = 4
	for axis := 0; axis < 2; axis++ {
		var sumAmp float64
		comps := make([]jitterComponent, nComp)
		for i := range comps {
			comps[i] = jitterComponent{
				amp:   rng.Range(0.5, 1.0),
				freq:  activity * rng.Range(0.2, 1.4), // Hz
				phase: rng.Range(0, 2*math.Pi),
			}
			sumAmp += comps[i].amp
		}
		// Normalize so the worst-case displacement equals the radius.
		for i := range comps {
			comps[i].amp *= radius / sumAmp
		}
		j.comps[axis] = comps
	}
	return j
}

// At implements Trajectory.
func (j *ConfinedJitter) At(t float64) geom.Point {
	var d [2]float64
	for axis := 0; axis < 2; axis++ {
		for _, c := range j.comps[axis] {
			d[axis] += c.amp * math.Sin(2*math.Pi*c.freq*t+c.phase)
		}
	}
	return geom.Point{X: j.Center.X + d[0], Y: j.Center.Y + d[1]}
}

// Offset wraps a trajectory with a constant displacement, useful for
// modeling a device held at a fixed offset from the walking user.
type Offset struct {
	Base Trajectory
	By   geom.Vector
}

// At implements Trajectory.
func (o Offset) At(t float64) geom.Point { return o.Base.At(t).Add(o.By) }

// CircleWalk moves on a circle around a center at constant angular speed —
// the paper's §9 limitation case, where ToF shows no trend even though the
// client is under macro-mobility.
type CircleWalk struct {
	Center     geom.Point
	Radius     float64
	Speed      float64 // tangential speed, m/s
	StartAngle float64
}

// At implements Trajectory.
func (c CircleWalk) At(t float64) geom.Point {
	if c.Radius == 0 {
		return c.Center
	}
	ang := c.StartAngle + c.Speed/c.Radius*t
	return c.Center.Add(geom.FromPolar(c.Radius, ang))
}

// RandomWalkPath generates a macro-mobility waypoint path inside bounds:
// legs of legMin..legMax meters with bounded turn angles, starting at start.
// Such paths have the property the classifier depends on — a walking user
// covers a reasonable distance between physical turns.
func RandomWalkPath(start geom.Point, bounds geom.Rect, legs int, legMin, legMax float64, rng *stats.RNG) geom.Path {
	pts := []geom.Point{start}
	cur := start
	dir := rng.Range(0, 2*math.Pi)
	for i := 0; i < legs; i++ {
		length := rng.Range(legMin, legMax)
		for attempt := 0; ; attempt++ {
			next := cur.Add(geom.FromPolar(length, dir))
			if bounds.Contains(next) {
				cur = next
				break
			}
			// Turn toward the middle of the floor and retry.
			dir = bounds.Center().Sub(cur).Angle() + rng.Range(-0.6, 0.6)
			if attempt > 8 {
				cur = bounds.ClampPoint(cur.Add(geom.FromPolar(length, dir)))
				break
			}
		}
		pts = append(pts, cur)
		// Bounded turn between legs (±100 degrees).
		dir += rng.Range(-1.8, 1.8)
	}
	return geom.NewPath(pts...)
}

// RelativeHeading classifies whether traj is approaching or receding from
// ref over the interval [t, t+dt]. A distance change smaller than eps
// reports HeadingNone.
func RelativeHeading(traj Trajectory, ref geom.Point, t, dt, eps float64) Heading {
	d0 := traj.At(t).Dist(ref)
	d1 := traj.At(t + dt).Dist(ref)
	switch {
	case d1-d0 > eps:
		return HeadingAway
	case d0-d1 > eps:
		return HeadingToward
	default:
		return HeadingNone
	}
}

// Phase is one segment of a Phased trajectory: Traj is followed (with
// time re-based to the phase start) until the absolute time Until.
type Phase struct {
	Until float64
	Traj  Trajectory
}

// Phased chains trajectories in time — a client that sits still, then
// fidgets, then walks off, as in the paper's per-link experiments where
// each link is subjected to several mobility modes in turn. The last
// phase extends beyond its Until bound.
type Phased struct {
	Phases []Phase
}

// At implements Trajectory.
func (p Phased) At(t float64) geom.Point {
	start := 0.0
	for i, ph := range p.Phases {
		if t < ph.Until || i == len(p.Phases)-1 {
			return ph.Traj.At(t - start)
		}
		start = ph.Until
	}
	return geom.Point{}
}
