package fastmath

import (
	"math"
	"testing"
)

// splitmix returns a deterministic uniform source in [0, 1).
func splitmix(seed uint64) func() float64 {
	state := seed
	return func() float64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return float64((z^(z>>31))>>11) / (1 << 53)
	}
}

// checkSincos fails t unless SincosSlice reproduces math.Sincos on every
// element of x.
func checkSincos(t *testing.T, x []float64) {
	t.Helper()
	sin, cos := make([]float64, len(x)), make([]float64, len(x))
	SincosSlice(x, sin, cos)
	for i, v := range x {
		ws, wc := math.Sincos(v)
		if !same(sin[i], ws) || !same(cos[i], wc) {
			t.Fatalf("SincosSlice at [%d] = %g: (%x, %x), math.Sincos = (%x, %x)", i, v,
				math.Float64bits(sin[i]), math.Float64bits(cos[i]), math.Float64bits(ws), math.Float64bits(wc))
		}
	}
}

// checkUnary fails t unless slice reproduces lib on every element of x.
func checkUnary(t *testing.T, name string, slice func(x, out []float64), lib func(float64) float64, x []float64) {
	t.Helper()
	out := make([]float64, len(x))
	slice(x, out)
	for i, v := range x {
		if want := lib(v); !same(out[i], want) {
			t.Fatalf("%s at [%d] = %g: %x, library %x", name, i, v, math.Float64bits(out[i]), math.Float64bits(want))
		}
	}
}

// checkBoxMuller fails t unless boxMullerSlice, with the lanes on or
// off, reproduces BoxMuller's scalar formula on every pair of x.
func checkBoxMuller(t *testing.T, x []float64, lanes bool) {
	t.Helper()
	out := append([]float64(nil), x...)
	boxMullerSlice(out, lanes)
	for k := 0; k < len(x); k += 2 {
		c, s := BoxMuller(x[k], x[k+1])
		if !same(out[k], c) || !same(out[k+1], s) {
			t.Fatalf("boxMullerSlice (lanes %v) pair %d (%g, %g) = (%x, %x), formula (%x, %x)", lanes, k/2, x[k], x[k+1],
				math.Float64bits(out[k]), math.Float64bits(out[k+1]), math.Float64bits(c), math.Float64bits(s))
		}
	}
}

// sweepLen keeps the dense sweeps short under -short.
func sweepLen() int {
	if testing.Short() {
		return 20000
	}
	return 200000
}

// TestLanesRun pins that every gate is on where the lanes exist, and that
// each kernel takes an in-domain block and declines a block with one lane
// outside its domain, whichever lane that is. A kernel that declined
// everything would pass every equivalence test while running none of it.
func TestLanesRun(t *testing.T) {
	if !hasLanes {
		t.Skip("no AVX2/FMA: the library computes every element")
	}
	if !SincosExact || !logExact || !expExact || !boxMullerExact {
		t.Fatalf("gates SincosExact=%v logExact=%v expExact=%v boxMullerExact=%v, want all on with AVX2 and FMA",
			SincosExact, logExact, expExact, boxMullerExact)
	}
	for _, tc := range []struct {
		name   string
		kernel func(x, a, b *float64, n int) int
		ok     [4]float64
		bad    []float64
	}{
		{"sincos4", sincos4, [4]float64{0.5, -3, 1e5, math.Copysign(0, -1)},
			[]float64{1 << 29, math.Inf(1), math.NaN(), -1e300}},
		{"log4", func(x, a, _ *float64, n int) int { return log4(x, a, n) }, [4]float64{0.5, 3, 1e-300, math.MaxFloat64},
			[]float64{0, -1, 5e-324, math.Inf(1), math.NaN()}},
		{"exp4", func(x, a, _ *float64, n int) int { return exp4(x, a, n) }, [4]float64{700, -700, 0, -1e-300},
			[]float64{700.0000000000001, -701, math.Inf(-1), math.NaN()}},
	} {
		var a, b [8]float64
		x := tc.ok
		if got := tc.kernel(&x[0], &a[0], &b[0], 4); got != 4 {
			t.Errorf("%s declined the in-domain block %v", tc.name, x)
		}
		if got := tc.kernel(&x[0], &a[0], &b[0], 3); got != 0 {
			t.Errorf("%s ran a block of four with n = 3 (wrote %d)", tc.name, got)
		}
		for _, v := range tc.bad {
			for lane := 0; lane < 4; lane++ {
				y := tc.ok
				y[lane] = v
				if got := tc.kernel(&y[0], &a[0], &b[0], 4); got != 0 {
					t.Errorf("%s accepted %g in lane %d", tc.name, v, lane)
				}
			}
		}
	}

	// boxMuller4's block is four (u, a) pairs, and either half of a pair
	// can decline it.
	ok := [8]float64{0.5, 0.1, 1e-300, 6.2, 1, -3, math.MaxFloat64, 1e5}
	x := ok
	if got := boxMuller4(&x[0], 8); got != 8 {
		t.Errorf("boxMuller4 declined the in-domain block %v", ok)
	}
	x = ok
	if got := boxMuller4(&x[0], 7); got != 0 {
		t.Errorf("boxMuller4 ran a block of four pairs with n = 7 (wrote %d)", got)
	}
	for _, bad := range []struct {
		half int
		v    []float64
	}{
		{0, []float64{0, -0.5, 5e-324, math.Inf(1), math.NaN()}},
		{1, []float64{1 << 29, math.Inf(-1), math.NaN()}},
	} {
		for _, v := range bad.v {
			for pair := 0; pair < 4; pair++ {
				y := ok
				y[2*pair+bad.half] = v
				if got := boxMuller4(&y[0], 8); got != 0 {
					t.Errorf("boxMuller4 accepted %g at [%d]", v, 2*pair+bad.half)
				}
			}
		}
	}
}

// TestBoxMullerSliceMatchesFormula checks the Box-Muller lanes against
// the scalar formula over the probe pairs and a dense sweep of the
// RNG's inputs: uniforms in (0, 1), angles 2*Pi*v, and the smallest
// uniform 2^-53. Both runs go through the lanes and the library, so a
// kernel that declined everything would still pass here; TestLanesRun
// pins that it runs.
func TestBoxMullerSliceMatchesFormula(t *testing.T) {
	probes := boxMullerProbes()
	checkBoxMuller(t, probes, true)
	checkBoxMuller(t, probes, false)
	checkBoxMuller(t, []float64{0x1p-53, 0, 1 - 0x1p-53, 2 * math.Pi * (1 - 0x1p-53), 0.5, math.Pi, 1, 2 * math.Pi}, true)
	next := splitmix(13)
	x := make([]float64, 0, 1000)
	for n := sweepLen(); n > 0; n -= len(x) {
		x = x[:0]
		for len(x)+2 <= cap(x) {
			u := next()
			for u == 0 {
				u = next()
			}
			x = append(x, u, 2*math.Pi*next())
		}
		checkBoxMuller(t, x, true)
	}
}

// TestSincosSliceMatchesLibrary sweeps both hot-path domains densely
// (channel path angles up to ~1e5, Box-Muller angles in [0, 2*Pi)), plus
// specials and the 2^29 handoff, in slices whose lengths leave tails.
func TestSincosSliceMatchesLibrary(t *testing.T) {
	checkSincos(t, []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		5e-324, -5e-324, 1e-310, 1<<29 - 1, 1 << 29, 1<<29 + 1, math.Nextafter(1<<29, 0),
		-(1 << 29), 1e300, math.Pi, -math.Pi, math.Pi / 2,
	})
	next := splitmix(0x9e3779b97f4a7c15)
	x := make([]float64, 0, 1003)
	for n := sweepLen(); n > 0; n -= len(x) {
		x = x[:0]
		for len(x)+2 <= cap(x) {
			u := next()
			x = append(x, (u-0.5)*2e5, u*2*math.Pi)
		}
		checkSincos(t, x)
	}
}

// TestSincosSliceOctantBoundaries walks exact ulp neighbourhoods of the
// octant boundaries k*Pi/4, where the lanes' octant and ladder are most
// likely to drift from the library's.
func TestSincosSliceOctantBoundaries(t *testing.T) {
	var x []float64
	for k := 0; k <= 256; k++ {
		b := float64(k) * (math.Pi / 4)
		x = append(x, b, -b,
			math.Nextafter(b, 0), math.Nextafter(b, math.Inf(1)),
			-math.Nextafter(b, 0), -math.Nextafter(b, math.Inf(1)))
	}
	checkSincos(t, x)
}

// TestLogSliceMatchesLibrary sweeps Log's lane domain from the smallest
// normal to MaxFloat64, densely over (0, 1] where the breakpoint ratios
// and the RNG's uniforms live, and across the Sqrt2/2 mantissa split.
func TestLogSliceMatchesLibrary(t *testing.T) {
	checkUnary(t, "LogSlice", LogSlice, math.Log, []float64{
		0x1p-1022, math.Nextafter(0x1p-1022, 0), 5e-324, math.MaxFloat64, 1, math.Nextafter(1, 0),
		math.Sqrt2 / 2, math.Nextafter(math.Sqrt2/2, 0), math.Nextafter(math.Sqrt2/2, 1), 0.5, 2,
		0, math.Copysign(0, -1), -1, math.Inf(1), math.Inf(-1), math.NaN(),
	})
	// Sqrt2/2 scaled by every exponent: the mantissa on which archLog's
	// "f1 <= Sqrt2/2" adjustment flips.
	var split []float64
	for k := -1021; k <= 1024; k++ {
		split = append(split, math.Ldexp(math.Sqrt2/2, k))
	}
	checkUnary(t, "LogSlice", LogSlice, math.Log, split)
	next := splitmix(7)
	x := make([]float64, 0, 1001)
	for n := sweepLen(); n > 0; n -= len(x) {
		x = x[:0]
		for len(x)+3 <= cap(x) {
			u := next()
			// A uniform, a ratio-like value and a random exponent.
			x = append(x, u, 1-u, math.Ldexp(0.5+u/2, int(next()*2040)-1021))
		}
		checkUnary(t, "LogSlice", LogSlice, math.Log, x)
	}
}

// TestExpSliceMatchesLibrary sweeps Exp's lane domain [-700, 700] and
// its edges, densely near 0 where the breakpoint's -0.25*Log values sit.
func TestExpSliceMatchesLibrary(t *testing.T) {
	checkUnary(t, "ExpSlice", ExpSlice, math.Exp, []float64{
		700, -700, math.Nextafter(700, 1000), math.Nextafter(-700, -1000), 709.78, 710, -745, -746,
		0, math.Copysign(0, -1), 5e-324, math.Inf(1), math.Inf(-1), math.NaN(), math.Ln2 / 2,
	})
	next := splitmix(11)
	x := make([]float64, 0, 1001)
	for n := sweepLen(); n > 0; n -= len(x) {
		x = x[:0]
		for len(x)+3 <= cap(x) {
			u := next()
			x = append(x, (u-0.5)*1400, (u-0.5)*10, u*1e-6)
		}
		checkUnary(t, "ExpSlice", ExpSlice, math.Exp, x)
	}
}

// TestSliceBlocksAndTails puts one out-of-domain value at every position
// of slices of every length up to 13, so declined blocks land first, in
// the middle and last, and runs each entry point in place (out == x).
func TestSliceBlocksAndTails(t *testing.T) {
	for n := 0; n <= 13; n++ {
		for bad := -1; bad < n; bad++ {
			x := make([]float64, n)
			for i := range x {
				x[i] = 0.1 + float64(i)
			}
			if bad >= 0 {
				x[bad] = math.NaN()
			}
			checkSincos(t, x)
			checkUnary(t, "LogSlice", LogSlice, math.Log, x)
			checkUnary(t, "ExpSlice", ExpSlice, math.Exp, x)

			want := make([]float64, n)
			for i, v := range x {
				want[i] = math.Log(v)
			}
			in := append([]float64(nil), x...)
			LogSlice(in, in)
			for i := range in {
				if !same(in[i], want[i]) {
					t.Fatalf("in-place LogSlice, n=%d bad=%d, at [%d]: %g, want %g", n, bad, i, in[i], want[i])
				}
			}
			copy(in, x)
			cos := make([]float64, n)
			SincosSlice(in, in, cos)
			for i, v := range x {
				if ws, wc := math.Sincos(v); !same(in[i], ws) || !same(cos[i], wc) {
					t.Fatalf("in-place SincosSlice, n=%d bad=%d, at [%d]", n, bad, i)
				}
			}
		}
	}
	// Box-Muller blocks are four pairs: n pairs with one bad u or one bad
	// angle at every position, lanes on and off.
	for n := 0; n <= 13; n++ {
		for bad := -1; bad < 2*n; bad++ {
			x := make([]float64, 2*n)
			for k := 0; k < n; k++ {
				x[2*k], x[2*k+1] = (0.5+float64(k))/14, 0.3+float64(k)
			}
			if bad >= 0 {
				x[bad] = math.Inf(1)
			}
			checkBoxMuller(t, x, true)
			checkBoxMuller(t, x, false)
		}
	}
}

// fuzzSeeds are the edges of every lane domain: octant boundaries, the
// Sincos threshold, denormals, signed zeros, infinities, NaN and Exp's
// ±700.
var fuzzSeeds = [][6]float64{
	{0, math.Copysign(0, -1), math.Pi / 4, -math.Pi / 4, 3 * math.Pi / 4, math.Nextafter(math.Pi/2, 0)},
	{1 << 29, math.Nextafter(1<<29, 0), -(1 << 29), 1e5, -1e5, 2 * math.Pi},
	{5e-324, -5e-324, 0x1p-1022, math.Nextafter(0x1p-1022, 0), 1e-310, 1},
	{math.Inf(1), math.Inf(-1), math.NaN(), 0.5, 0.25, 0.125},
	{700, -700, math.Nextafter(700, 1000), math.Nextafter(-700, -1000), 709.78, -745},
	{0.3, 0.7, 1.5, 2.5, 100, 1e-3},
}

// FuzzSincosSlice checks a block of four plus a tail of two against
// math.Sincos bit for bit.
func FuzzSincosSlice(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s[0], s[1], s[2], s[3], s[4], s[5])
	}
	f.Fuzz(func(t *testing.T, a, b, c, d, e, g float64) {
		checkSincos(t, []float64{a, b, c, d, e, g})
	})
}

// FuzzLogSlice checks a block of four plus a tail of two against
// math.Log bit for bit.
func FuzzLogSlice(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s[0], s[1], s[2], s[3], s[4], s[5])
	}
	f.Fuzz(func(t *testing.T, a, b, c, d, e, g float64) {
		checkUnary(t, "LogSlice", LogSlice, math.Log, []float64{a, b, c, d, e, g})
	})
}

// FuzzExpSlice checks a block of four plus a tail of two against
// math.Exp bit for bit.
func FuzzExpSlice(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s[0], s[1], s[2], s[3], s[4], s[5])
	}
	f.Fuzz(func(t *testing.T, a, b, c, d, e, g float64) {
		checkUnary(t, "ExpSlice", ExpSlice, math.Exp, []float64{a, b, c, d, e, g})
	})
}

// FuzzBoxMullerSlice checks four pairs, one block of lanes, plus a tail
// pair against the scalar Box-Muller formula bit for bit.
func FuzzBoxMullerSlice(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s[0], s[1], s[2], s[3], s[4], s[5])
	}
	f.Fuzz(func(t *testing.T, a, b, c, d, e, g float64) {
		checkBoxMuller(t, []float64{a, b, c, d, e, g, math.Abs(a), g, 0.5, b}, true)
	})
}

// benchInputs returns 160 values of the kind each kernel sees on the
// frame path: path-length phases, uniforms, -0.25*Log of ratios.
func benchInputs(scale, offset float64) []float64 {
	next := splitmix(3)
	x := make([]float64, 160)
	for i := range x {
		x[i] = offset + scale*next()
	}
	return x
}

var benchSink float64

func BenchmarkSincosSlice(b *testing.B) {
	x := benchInputs(2e4, -1e4)
	sin, cos := make([]float64, len(x)), make([]float64, len(x))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SincosSlice(x, sin, cos)
	}
	benchSink = sin[0] + cos[0]
}

func BenchmarkSincosLoop(b *testing.B) {
	x := benchInputs(2e4, -1e4)
	sin, cos := make([]float64, len(x)), make([]float64, len(x))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, v := range x {
			sin[j], cos[j] = math.Sincos(v)
		}
	}
	benchSink = sin[0] + cos[0]
}

func BenchmarkLogSlice(b *testing.B) {
	x := benchInputs(1, 1e-9)
	out := make([]float64, len(x))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		LogSlice(x, out)
	}
	benchSink = out[0]
}

func BenchmarkLogLoop(b *testing.B) {
	x := benchInputs(1, 1e-9)
	out := make([]float64, len(x))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, v := range x {
			out[j] = math.Log(v)
		}
	}
	benchSink = out[0]
}

func BenchmarkExpSlice(b *testing.B) {
	x := benchInputs(4, 0)
	out := make([]float64, len(x))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ExpSlice(x, out)
	}
	benchSink = out[0]
}

func BenchmarkExpLoop(b *testing.B) {
	x := benchInputs(4, 0)
	out := make([]float64, len(x))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, v := range x {
			out[j] = math.Exp(v)
		}
	}
	benchSink = out[0]
}

// boxMullerInputs returns 156 (u, a) pairs as the RNG draws them: the
// pair count of the larger NormFill call in one CSI measurement.
func boxMullerInputs() []float64 {
	next := splitmix(5)
	x := make([]float64, 312)
	for k := 0; k < len(x); k += 2 {
		x[k], x[k+1] = next()+0x1p-53, 2*math.Pi*next()
	}
	return x
}

func BenchmarkBoxMullerSlice(b *testing.B) {
	in := boxMullerInputs()
	x := make([]float64, len(in))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(x, in)
		BoxMullerSlice(x)
	}
	benchSink = x[0]
}

func BenchmarkBoxMullerLoop(b *testing.B) {
	in := boxMullerInputs()
	x := make([]float64, len(in))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < len(in); k += 2 {
			x[k], x[k+1] = BoxMuller(in[k], in[k+1])
		}
	}
	benchSink = x[0]
}
