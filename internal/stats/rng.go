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

// golden is the SplitMix64 increment: Uint64 adds it to the state before
// mixing.
const golden = 0x9e3779b97f4a7c15

// mix is the SplitMix64 finalizer.
func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// unit maps 64 random bits to a uniform variate in [0, 1).
func unit(z uint64) float64 {
	return float64(z>>11) / (1 << 53)
}

// Split derives an independent child generator from r. The child stream is a
// deterministic function of r's current state and the supplied label, so two
// Splits with different labels never collide. Splitting does not advance r.
func (r *RNG) Split(label uint64) *RNG {
	return &RNG{state: mix(r.state + golden*(label+1))}
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	r.state += golden
	return mix(r.state)
}

// Float64 returns a uniform variate in [0, 1).
func (r *RNG) Float64() float64 {
	return unit(r.Uint64())
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
	z, spare := fastmath.BoxMuller(u, 2*math.Pi*v)
	r.spare = spare
	r.hasSpare = true
	return z
}

// uniformExact gates the uniform lanes: true when the CPU runs them and
// they reproduce the scalar draws bit for bit from every probe state.
var uniformExact = hasUniformLanes && probeUniform()

// NormFill fills dst with standard Gaussian variates: the values, in order,
// that len(dst) NormFloat64 calls would return, leaving r in the state
// those calls would leave. It draws each pair's uniforms in the same order,
// with the same u > 0 redraw, into the pair's own two slots, and carries
// the spare in and out; fastmath.BoxMullerSlice then transforms the pairs
// in place with the formula NormFloat64 evaluates, four pairs to a block
// of lanes. The draws run four pairs to a block of lanes too: without a
// redraw the k-th uniform is a pure function of the state plus k
// increments, so a block is drawn from the state alone, and a block that
// holds a zero u is drawn by the scalar loop instead.
func (r *RNG) NormFill(dst []float64) { r.normFill(dst, true) }

// normFill is NormFill with the lanes on or off: off, the scalar loop
// draws every pair and fastmath.BoxMuller, the library formula,
// transforms it.
func (r *RNG) normFill(dst []float64, lanes bool) {
	if len(dst) > 0 && r.hasSpare {
		r.hasSpare = false
		dst[0] = r.spare
		dst = dst[1:]
	}
	n := len(dst) &^ 1
	if n > 0 {
		s := r.state
		for k := 0; k < n; {
			if lanes && uniformExact {
				w := uniformPairs4(&dst[k], n-k, s)
				s += uint64(w) * golden
				k += w
			}
			// The block the lanes declined, or the tail.
			for end := min(k+8, n); k < end; k += 2 {
				s += golden
				u := unit(mix(s))
				for u <= 0 {
					s += golden
					u = unit(mix(s))
				}
				s += golden
				dst[k], dst[k+1] = u, 2*math.Pi*unit(mix(s))
			}
		}
		r.state = s
		if lanes {
			fastmath.BoxMullerSlice(dst[:n])
		} else {
			for k := 0; k < n; k += 2 {
				dst[k], dst[k+1] = fastmath.BoxMuller(dst[k], dst[k+1])
			}
		}
		// NormFloat64 leaves the last sine in the spare slot after
		// returning it; so does NormFill, so the whole state matches.
		r.spare = dst[n-1]
	}
	if len(dst) > n {
		dst[n] = r.NormFloat64()
	}
}

// probeUniform reports whether the uniform lanes reproduce the scalar
// draws: from states at the edges of uint64 arithmetic and a SplitMix
// stream of states, every block they write must hold the scalar pairs,
// and they must stop exactly at the first block holding a zero u (the
// states -(2k+1)*golden put one at pair k).
func probeUniform() bool {
	g := uint64(golden)
	states := []uint64{0, 1, 1 << 63, ^uint64(0), -g, -(5 * g), -(9 * g), -(37 * g)}
	for seed := uint64(1); len(states) < 72; seed++ {
		states = append(states, mix(seed*golden))
	}
	var got [48]float64
	for _, s0 := range states {
		want := len(got)
		for k := 0; k < len(got)/2; k++ {
			if unit(mix(s0+uint64(2*k+1)*golden)) == 0 {
				want = k / 4 * 8
				break
			}
		}
		if uniformPairs4(&got[0], len(got), s0) != want {
			return false
		}
		for k := 0; k < want/2; k++ {
			u, a := unit(mix(s0+uint64(2*k+1)*golden)), 2*math.Pi*unit(mix(s0+uint64(2*k+2)*golden))
			if math.Float64bits(got[2*k]) != math.Float64bits(u) || math.Float64bits(got[2*k+1]) != math.Float64bits(a) {
				return false
			}
		}
	}
	return true
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
