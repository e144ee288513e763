// Package stats provides the deterministic random-number generation and
// descriptive statistics that every other package in this repository builds
// on: seeded generators, Gaussian sampling, empirical CDFs, median filters,
// moving windows and simple trend tests.
//
// All randomness in the simulator flows through RNG so that every experiment
// is reproducible from a single 64-bit seed.
package stats

import (
	"math"

	"mobiwlan/internal/fastmath"
)

// RNG is a small, fast, deterministic pseudo-random generator based on
// SplitMix64 for stream splitting and xoshiro256**-style output mixing.
// It is NOT cryptographically secure; it exists to make simulations
// reproducible across runs and platforms.
//
// The zero value is a valid generator seeded with 0.
type RNG struct {
	state uint64
	// spare caches the second Gaussian variate from the Box-Muller
	// transform between calls to NormFloat64.
	spare    float64
	hasSpare bool
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Split derives an independent child generator from r. The child stream is a
// deterministic function of r's current state and the supplied label, so two
// Splits with different labels never collide. Splitting does not advance r.
func (r *RNG) Split(label uint64) *RNG {
	// Mix the label in with two rounds of SplitMix64 finalization.
	x := r.state + 0x9e3779b97f4a7c15*(label+1)
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return &RNG{state: x}
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform variate in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform variate in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn called with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Range returns a uniform variate in [lo, hi).
func (r *RNG) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// NormFloat64 returns a standard Gaussian variate (mean 0, stddev 1) using
// the Box-Muller transform.
func (r *RNG) NormFloat64() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	var u, v float64
	for {
		u = r.Float64()
		if u > 0 {
			break
		}
	}
	v = r.Float64()
	mag := math.Sqrt(-2 * math.Log(u))
	if fastmath.SincosExact {
		// One branchless reduction serves both variates; bit-identical
		// to the separate Sin and Cos calls below (fastmath's probe pins
		// all three against each other), without the octant mispredicts
		// that random angles inflict on the branchy library ladder.
		s, c := fastmath.Sincos(2 * math.Pi * v)
		r.spare = mag * s
		r.hasSpare = true
		return mag * c
	}
	r.spare = mag * math.Sin(2*math.Pi*v)
	r.hasSpare = true
	return mag * math.Cos(2*math.Pi*v)
}

// Gaussian returns a Gaussian variate with the given mean and stddev.
func (r *RNG) Gaussian(mean, stddev float64) float64 {
	return mean + stddev*r.NormFloat64()
}

// Bool returns true with probability p (clamped to [0,1]).
func (r *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}
