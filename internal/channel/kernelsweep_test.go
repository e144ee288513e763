package channel

import (
	"fmt"
	"math"
	"testing"

	"mobiwlan/internal/csi"
	"mobiwlan/internal/mobility"
	"mobiwlan/internal/stats"
)

// This file is the kernel-equivalence configuration sweep: the batched
// struct-of-arrays kernel (fused AVX2 sweep where eligible, the Go chain
// sweep otherwise) is asserted bit-identical to the scalar referenceInto
// across a grid of channel shapes — path counts, subcarrier counts,
// antenna geometries and both sides of the breakpoint path-loss branch —
// not just the default 52x3x2 shape the golden traces pin.

// sweepShape is one (subcarriers, NTx, NRx) point. The grid mixes
// fused-eligible shapes (even NTx*NRx, subcarriers % 4 == 0) with shapes
// that must take the Go fallback sweep (odd pair count, ragged
// subcarrier tails).
type sweepShape struct{ sub, ntx, nrx int }

// sweepScene is one scatterer population: nPaths = 1 + static + walls
// (8) + moving, so the grid covers the single-path LoS degenerate case
// through populations larger than the default scene.
type sweepScene struct{ static, moving int }

// sweepLoss selects a breakpoint branch: the exact-0.75 fast path, a
// general exponent that must take math.Pow, and no breakpoint at all.
type sweepLoss struct {
	name     string
	exponent float64
	breakM   float64
}

// TestKernelEquivalenceSweep runs every (shape x scene x loss x mode)
// cell — 162 seeded configurations — through a repeated-and-advancing
// time series and asserts three models agree bit-for-bit at every step:
//
//   - uncached: the scalar per-call referenceInto
//   - cached: the batched kernel as built (fused on capable hardware)
//   - fallback: the batched kernel with the fused sweep forced off,
//     so the AVX2 kernel and the Go chain sweep are compared against
//     each other on every fused-eligible cell, not just against the
//     reference
//
// Every shape x scene x loss cell runs in all three modes, so each one
// sees both regimes of the kernel's first index: a moving client
// (macro, micro: first = 0, every path re-keyed) and scatterer-only
// motion (environmental: first > 0, the memoized prefix seeds the sums),
// plus the epoch fast path on repeated timestamps.
func TestKernelEquivalenceSweep(t *testing.T) {
	shapes := []sweepShape{
		{52, 3, 2}, // paper default: fused (6 pairs, 52 = 4*13)
		{48, 2, 2}, // fused, smaller
		{16, 4, 2}, // fused, wide array
		{52, 3, 1}, // odd pair count: fallback
		{30, 3, 2}, // ragged subcarriers: fallback
		{8, 1, 1},  // single pair: fallback
	}
	scenes := []sweepScene{
		{0, 0},  // LoS + walls only
		{12, 4}, // paper default
		{27, 6}, // denser than default
	}
	losses := []sweepLoss{
		{"pow075", 3.5, 5},  // (3.5-2)/2 = 0.75: exact fast path
		{"powgen", 4.2, 5},  // general exponent: math.Pow branch
		{"nobreak", 3.5, 0}, // breakpoint disabled
	}
	modes := []mobility.Mode{mobility.Environmental, mobility.Macro, mobility.Micro}
	times := []float64{0, 0, 0.05, 0.05, 0.1, 0.73, 0.73, 0.75}

	nConfigs := 0
	nFused := 0
	for si, shape := range shapes {
		for ci, scene := range scenes {
			for li, loss := range losses {
				for _, mode := range modes {
					cfg := DefaultConfig()
					cfg.Subcarriers = shape.sub
					cfg.NTx, cfg.NRx = shape.ntx, shape.nrx
					cfg.PathLossExponent = loss.exponent
					cfg.PathLossBreakM = loss.breakM

					scfg := mobility.DefaultSceneConfig()
					scfg.StaticScatterers = scene.static
					scfg.MovingScatterers = scene.moving

					seed := uint64(1000*si + 100*ci + 10*li)
					build := func(rng *stats.RNG) *mobility.Scenario {
						return mobility.NewScenario(mode, scfg, rng)
					}
					cached, uncached := cachedAndUncached(cfg, build, seed)
					fallback := New(cfg, build(stats.NewRNG(seed)), stats.NewRNG(seed+1000))
					fallback.fused = false

					nConfigs++
					if cached.fused {
						nFused++
					}
					cell := fmt.Sprintf("%dx%dx%d/%d+%d/%s/%v",
						shape.sub, shape.ntx, shape.nrx, scene.static, scene.moving, loss.name, mode)
					var hc, hu, hf *csi.Matrix
					for _, tt := range times {
						hc = cached.ResponseInto(tt, hc)
						hu = uncached.referenceInto(tt, hu)
						hf = fallback.ResponseInto(tt, hf)
						requireSameBits(t, cell+" cached-vs-uncached", tt, hc, hu)
						requireSameBits(t, cell+" fallback-vs-uncached", tt, hf, hu)
					}
				}
			}
		}
	}
	if nConfigs < 150 {
		t.Fatalf("sweep covers %d configurations, want >= 150", nConfigs)
	}
	if fusedSweepOK && nFused == 0 {
		t.Fatal("AVX2 is available but no sweep cell exercised the fused kernel")
	}
	t.Logf("swept %d configurations (%d fused)", nConfigs, nFused)
}

// TestPow075MatchesPow pins the scalar breakpoint power helper against
// math.Pow bit-for-bit over the ratio domain the kernel feeds it
// (bp/length in (0, 1]) plus magnitude extremes. The init-time gate makes
// a mismatch fall back safely; this test makes a platform where the gate
// trips visible instead of silent. The lane-wise breakpoint pass is held
// to the math.Pow reference by TestKernelEquivalenceSweep.
func TestPow075MatchesPow(t *testing.T) {
	if !pow075Exact {
		t.Skip("pow075 gate is off on this platform; kernel uses math.Pow")
	}
	probes := []float64{1, 0.999999999, 0.5, 1e-6, 1e-300, 5e-324}
	x := 1.0
	for i := 0; i < 400; i++ {
		x *= 0.971
		probes = append(probes, x)
	}
	for _, p := range probes {
		want := math.Pow(p, 0.75)
		if got := pow075(p); got != want {
			t.Fatalf("pow075(%g) = %g, math.Pow = %g", p, got, want)
		}
	}
}

// TestMulFrexpLdexpMatchesLibrary pins breakpointPass's exponent
// arithmetic to math.Frexp and math.Ldexp: over pow075Exact's probe
// ratios and TestPow075MatchesPow's, with the factor pow075 feeds it and
// with factors that push the result to the edges of the normal range, it
// either returns Ldexp(a*frac, exp)'s bits or declines. It must take
// every in-range ratio the kernel sees and decline zero, subnormal,
// infinite and NaN ratios and results that Ldexp would round to a
// subnormal or overflow.
func TestMulFrexpLdexpMatchesLibrary(t *testing.T) {
	lib := func(a, r float64) float64 {
		frac, exp := math.Frexp(r)
		return math.Ldexp(a*frac, exp)
	}
	var ratios []float64
	for x := 0.999999; len(ratios) < 256; x *= 0.917 {
		ratios = append(ratios, x)
	}
	for x := 1.0; len(ratios) < 656; {
		x *= 0.971
		ratios = append(ratios, x)
	}
	ratios = append(ratios, 1, 0.999999999, 0.5, 1e-6, 1e-300, 0x1p-1022, 3, 1e300)
	for _, r := range ratios {
		a := math.Exp(-0.25 * math.Log(r))
		for _, f := range []float64{a, 1, 0x1p-60, 0x1p60} {
			got, ok := mulFrexpLdexp(f, r)
			if !ok {
				if r <= 1 && f == a {
					t.Errorf("declined ratio %g with pow075's factor %g", r, f)
				}
				continue
			}
			if want := lib(f, r); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("mulFrexpLdexp(%g, %g) = %x, Ldexp/Frexp %x", f, r, math.Float64bits(got), math.Float64bits(want))
			}
		}
	}
	for _, c := range []struct{ a, r float64 }{
		{1, 0}, {1, 5e-324}, {1, 1e-310}, {1, math.Nextafter(0x1p-1022, 0)},
		{1, math.Inf(1)}, {1, math.NaN()},
		{0x1p-60, 1e-300},    // result below the normal range
		{1, math.MaxFloat64}, // 2^exp would overflow
		{0x1p1000, 0x1p100},  // result overflows
		{math.Inf(1), 0.5},   // infinite product
		{5e-324, 0.5},        // subnormal product
	} {
		if v, ok := mulFrexpLdexp(c.a, c.r); ok {
			t.Errorf("mulFrexpLdexp(%g, %g) = %g, want declined", c.a, c.r, v)
		}
	}
}
