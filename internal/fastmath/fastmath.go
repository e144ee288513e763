// Package fastmath evaluates the math package's Sincos, Log and Exp over
// slices, four elements at a time in AVX2 lanes on amd64, with outputs
// bit-identical to the library's; and the Box-Muller transform built from
// Log and Sincos, four pairs at a time, bit-identical to the scalar
// formula stats.RNG.NormFloat64 evaluates.
//
// Each lane kernel (lanes_amd64.s) is an operation-for-operation
// transcription of the code math runs on amd64: the portable Sincos
// (math/sincos.go), the assembly archLog, and archExp's FMA variant,
// which math.Exp takes whenever the CPU has AVX and FMA. A lane applies
// the library's IEEE operations in the library's order to its own input,
// so it rounds exactly where the library rounds. Sincos's octant branches
// become a blend and sign-bit XORs, which move values without rounding
// them; archLog's adjustment is already mask arithmetic, copied as is;
// archExp's branches lie outside the lanes' domain. What the lanes buy is
// throughput: four independent dependency chains per instruction stream
// instead of one, and no octant-dependent branches to mispredict on
// random angles.
//
// The Box-Muller kernel chains the Log and Sincos sequences: per pair it
// takes -2 times the Log lane (an exact product), VSQRTPD's correctly
// rounded square root (the SQRTSD math.Sqrt compiles to), the Sincos
// lanes and two products, so each pair gets the scalar formula's
// operations in its order.
//
// A block of four runs in lanes only when every lane lies in the kernel's
// plain domain, where the library takes none of its special-case exits:
//
//   - Sincos: |x| < 2^29, below the library's Payne-Hanek threshold;
//   - Log: x positive, normal and finite;
//   - Exp: |x| <= 700, so the result needs no overflow, underflow or
//     denormal scaling;
//   - Box-Muller: every u in Log's domain and every angle in Sincos's.
//
// Any other block, and the tail of fewer than four, goes to math.Sincos,
// math.Log, math.Exp or the scalar Box-Muller formula, so every entry
// point is total.
//
// Bit-identity is checked, not assumed. Each kernel has one gate, set at
// init: the CPU and OS must support AVX2, FMA and YMM state, and then the
// kernel must reproduce the library bit for bit over a probe sweep of
// octant boundaries, magnitudes, specials and denormals. With a gate off
// (another platform, a GOAMD64 level that lets the compiler contract the
// library's portable code into FMAs, or a future library change) the
// library computes every element. Callers never consult a gate.
package fastmath

import "math"

// SincosExact gates the Sincos lanes: true when the CPU runs them and
// they reproduce math.Sincos bit for bit over the probe sweep.
var SincosExact = hasLanes && probeSincos()

// logExact, expExact and boxMullerExact gate the Log, Exp and Box-Muller
// lanes likewise.
var (
	logExact       = hasLanes && probeUnary(logSlice, math.Log)
	expExact       = hasLanes && probeUnary(expSlice, math.Exp)
	boxMullerExact = hasLanes && probeBoxMuller()
)

// SincosSlice sets sin[i], cos[i] = math.Sincos(x[i]) for every i. sin or
// cos may be x itself; it panics if either is shorter than x.
func SincosSlice(x, sin, cos []float64) { sincosSlice(x, sin, cos, SincosExact) }

// LogSlice sets out[i] = math.Log(x[i]) for every i. out may be x; it
// panics if out is shorter than x.
func LogSlice(x, out []float64) { logSlice(x, out, logExact) }

// ExpSlice sets out[i] = math.Exp(x[i]) for every i. out may be x; it
// panics if out is shorter than x.
func ExpSlice(x, out []float64) { expSlice(x, out, expExact) }

// BoxMullerSlice transforms x in place, pair by pair: with u = x[2k] and
// a = x[2k+1] it sets x[2k], x[2k+1] = BoxMuller(u, a). These are the two
// variates NormFloat64 returns for the uniforms u and a/(2*Pi), in its
// order. It panics if len(x) is odd.
func BoxMullerSlice(x []float64) { boxMullerSlice(x, boxMullerExact) }

// BoxMuller returns m*c and m*s, where m = math.Sqrt(-2*math.Log(u)) and
// s, c = math.Sincos(a): the scalar formula BoxMullerSlice reproduces.
func BoxMuller(u, a float64) (float64, float64) {
	m := math.Sqrt(-2 * math.Log(u))
	s, c := math.Sincos(a)
	return m * c, m * s
}

// sincosSlice is SincosSlice with the lanes on or off. Each pass of the
// loop runs the kernel to the end of x or to the first block it declines,
// and hands a declined block to the library whole.
func sincosSlice(x, sin, cos []float64, lanes bool) {
	sin, cos = sin[:len(x)], cos[:len(x)]
	i := 0
	for lanes && len(x)-i >= 4 {
		i += sincos4(&x[i], &sin[i], &cos[i], len(x)-i)
		if len(x)-i >= 4 {
			for end := i + 4; i < end; i++ {
				sin[i], cos[i] = math.Sincos(x[i])
			}
		}
	}
	for ; i < len(x); i++ {
		sin[i], cos[i] = math.Sincos(x[i])
	}
}

// logSlice is LogSlice with the lanes on or off (see sincosSlice).
func logSlice(x, out []float64, lanes bool) {
	out = out[:len(x)]
	i := 0
	for lanes && len(x)-i >= 4 {
		i += log4(&x[i], &out[i], len(x)-i)
		if len(x)-i >= 4 {
			for end := i + 4; i < end; i++ {
				out[i] = math.Log(x[i])
			}
		}
	}
	for ; i < len(x); i++ {
		out[i] = math.Log(x[i])
	}
}

// expSlice is ExpSlice with the lanes on or off (see sincosSlice).
func expSlice(x, out []float64, lanes bool) {
	out = out[:len(x)]
	i := 0
	for lanes && len(x)-i >= 4 {
		i += exp4(&x[i], &out[i], len(x)-i)
		if len(x)-i >= 4 {
			for end := i + 4; i < end; i++ {
				out[i] = math.Exp(x[i])
			}
		}
	}
	for ; i < len(x); i++ {
		out[i] = math.Exp(x[i])
	}
}

// boxMullerSlice is BoxMullerSlice with the lanes on or off (see
// sincosSlice); a block is four pairs.
func boxMullerSlice(x []float64, lanes bool) {
	if len(x)%2 != 0 {
		panic("fastmath: BoxMullerSlice of an odd length")
	}
	i := 0
	for lanes && len(x)-i >= 8 {
		i += boxMuller4(&x[i], len(x)-i)
		if len(x)-i >= 8 {
			for end := i + 8; i < end; i += 2 {
				x[i], x[i+1] = BoxMuller(x[i], x[i+1])
			}
		}
	}
	for ; i < len(x); i += 2 {
		x[i], x[i+1] = BoxMuller(x[i], x[i+1])
	}
}

// same reports whether a and b are the same float64, any NaN matching
// any NaN.
func same(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

// sincosProbes returns the Sincos probe sweep: specials and denormals,
// one-ulp-scale neighbourhoods of the octant boundaries k*Pi/4, a
// magnitude sweep from 1e-15 past the 2^29 threshold, and dense sweeps
// over the channel kernel's path angles (around 1e2..1e5 in magnitude)
// and the RNG's Box-Muller angles in [0, 2*Pi).
func sincosProbes() []float64 {
	probes := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		5e-324, -5e-324, 1e-310, -1e-310, 1 << 29, -(1 << 29),
	}
	for k := 0; k <= 64; k++ {
		b := float64(k) * (math.Pi / 4)
		probes = append(probes, b, -b, b+1e-9, -(b + 1e-9), b-1e-9, -(b - 1e-9))
	}
	x := 1e-15
	for i := 0; i < 250; i++ {
		probes = append(probes, x, -x)
		x *= 1.35
	}
	for i := 0; i < 2000; i++ {
		probes = append(probes, -5e4+float64(i)*53.77)
	}
	for i := 0; i < 1000; i++ {
		probes = append(probes, float64(i)*(2*math.Pi/1000))
	}
	return probes
}

// logExpProbes returns the Log and Exp probe sweep: specials, denormals,
// Exp's overflow and underflow edges, and both signs of a geometric sweep
// from 1e-12 to beyond 1e12, which covers the breakpoint ratios, their
// logarithms and the RNG's uniforms.
func logExpProbes() []float64 {
	probes := []float64{
		0, math.Copysign(0, -1), 1, -1, math.Inf(1), math.Inf(-1), math.NaN(),
		5e-324, 1e-310, math.MaxFloat64, 700, -700, 709, 710, -745, -746,
	}
	x := 1e-12
	for i := 0; i < 600; i++ {
		probes = append(probes, x, -x)
		x *= 1.1
	}
	return probes
}

// probeSincos runs the Sincos lanes over the probe sweep and reports
// whether every output matches math.Sincos.
func probeSincos() bool {
	x := sincosProbes()
	sin, cos := make([]float64, len(x)), make([]float64, len(x))
	sincosSlice(x, sin, cos, true)
	for i, v := range x {
		ws, wc := math.Sincos(v)
		if !same(sin[i], ws) || !same(cos[i], wc) {
			return false
		}
	}
	return true
}

// probeUnary runs a Log or Exp slice function with its lanes on over the
// probe sweep and reports whether every output matches lib.
func probeUnary(slice func(x, out []float64, lanes bool), lib func(float64) float64) bool {
	x := logExpProbes()
	out := make([]float64, len(x))
	slice(x, out, true)
	for i, v := range x {
		if !same(out[i], lib(v)) {
			return false
		}
	}
	return true
}

// boxMullerProbes returns the Box-Muller probe pairs, interleaved (u, a):
// the k-th pair takes the magnitude of the k-th Log probe and the k-th
// Sincos probe, each sweep repeating until the longer one ends. Specials,
// zeros and denormals decline their blocks; every other block runs in
// lanes.
func boxMullerProbes() []float64 {
	us, as := logExpProbes(), sincosProbes()
	x := make([]float64, 0, 2*max(len(us), len(as)))
	for k := 0; k < max(len(us), len(as)); k++ {
		x = append(x, math.Abs(us[k%len(us)]), as[k%len(as)])
	}
	return x
}

// probeBoxMuller runs the Box-Muller lanes over the probe pairs and
// reports whether every output matches the scalar formula.
func probeBoxMuller() bool {
	x := boxMullerProbes()
	out := append([]float64(nil), x...)
	boxMullerSlice(out, true)
	for k := 0; k < len(x); k += 2 {
		c, s := BoxMuller(x[k], x[k+1])
		if !same(out[k], c) || !same(out[k+1], s) {
			return false
		}
	}
	return true
}
