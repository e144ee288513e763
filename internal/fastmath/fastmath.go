// Package fastmath evaluates the math package's Sincos, Log and Exp over
// slices, four elements at a time in AVX2 lanes on amd64, with outputs
// bit-identical to the library's.
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
// A block of four runs in lanes only when every lane lies in the kernel's
// plain domain, where the library takes none of its special-case exits:
//
//   - Sincos: |x| < 2^29, below the library's Payne-Hanek threshold;
//   - Log: x positive, normal and finite;
//   - Exp: |x| <= 700, so the result needs no overflow, underflow or
//     denormal scaling.
//
// Any other block, and the tail of fewer than four, goes to math.Sincos,
// math.Log or math.Exp, so every entry point is total.
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

// logExact and expExact gate the Log and Exp lanes likewise.
var (
	logExact = hasLanes && probeUnary(logSlice, math.Log)
	expExact = hasLanes && probeUnary(expSlice, math.Exp)
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
