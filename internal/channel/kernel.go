package channel

import (
	"math"

	"mobiwlan/internal/csi"
	"mobiwlan/internal/fastmath"
	"mobiwlan/internal/geom"
)

// This file holds the batched struct-of-arrays response kernel: the one
// cache-backed evaluation, evalIncremental, which ResponseInto runs from
// first (the lowest path whose epoch key changed), plus the exact
// breakpoint power helper. The scalar reference every output is tested
// bit-for-bit against lives in reference_test.go.
//
// Layout: all per-path cache state is struct-of-arrays, indexed
// [pair*nPaths+pi] — the memoized initial phasor (ph0), per-subcarrier
// rotation (rot) and path length (lens) are two complex128 and one float64
// per chain instead of the old Subcarriers-sized phasor series, so the
// whole working set (~16 KB at default dimensions, versus ~124 KB for the
// series) stays cache-resident. The ordered per-subcarrier partial sum of
// the leading unchanged paths is memoized once per pair in pref
// [pair*nSub+sc], which is what lets an environmental step pay only for
// the moving chains.
//
// The evaluation is organised as struct-of-arrays passes: antenna-leg
// distances, then per-chain lengths and amplitudes for every antenna
// pair, then the gathered breakpoint powers, then the phasor Sincos fill,
// then the per-pair subcarrier chain loop. Splitting the per-path work
// this way changes no per-value operation — each pass applies exactly the
// op subsequence the scalar reference applies to that value — but it
// gathers the long-latency calls (Pow's Log/Exp pair, Sincos) of every
// changed chain of every pair into one batch per evaluation, which
// fastmath's slice kernels run four chains to an instruction stream
// instead of serialising one chain's full pipeline at a time. A chain's
// values depend on its own length and gain only, so running all pairs'
// re-keying before any pair's passes, and all passes before any pair's
// sweep, reorders no operation on any value.
//
// Bit-identity argument (see DESIGN.md, "Batched SoA response kernel"):
// the value the scalar reference adds at subcarrier sc for path pi is
// the initial phasor advanced by sc sequential complex multiplies, and the
// per-subcarrier total is accumulated in path order. The kernel preserves
// exactly that: chains always advance by the same `*=` sequence from the
// same initial phasor (memoized or recomputed, the value is a pure
// function of (length, gain) and the fixed config), and every
// per-subcarrier sum is seeded with the memoized ordered prefix (itself
// produced by the same process) and extended in path order. The chain
// loop retires four subcarriers per pass over the paths, which reorders
// nothing: each chain still advances by the same multiply sequence, and
// each subcarrier's sum still adds the same values in path order — the
// four accumulators just live across one loop body instead of four.

// pow075 is math.Pow(x, 0.75) for positive finite x, as the exact
// operation sequence math's portable pow takes for y = 0.75: Modf(0.75)
// yields (0, 0.75), the yf > 0.5 rebalance makes (yi, yf) = (1, -0.25),
// so the result is Exp(-0.25*Log(x)) times one squaring-loop step (a1*x1,
// ae+xe). Skipping Pow's special-case ladder and Modf saves real time on
// the per-path breakpoint hot path without changing a single bit.
func pow075(x float64) float64 {
	x1, xe := math.Frexp(x)
	a1 := math.Exp(-0.25 * math.Log(x))
	a1 *= x1
	return math.Ldexp(a1, xe)
}

// mulFrexpLdexp returns math.Ldexp(a*frac, exp) for frac, exp =
// math.Frexp(r), the tail of pow075 after its Exp, as exponent
// arithmetic: for a normal r, frac is r's mantissa with the exponent of
// 0.5 and exp its unbiased exponent plus one, read from r's bits; and
// when a*frac scaled by 2^exp is normal, the multiply by 2^exp is exact
// and so equals Ldexp, which sets the same exponent bits. ok is false,
// and the result unset, for anything else: a zero, subnormal, infinite
// or NaN r, or a result Ldexp would round to a subnormal or overflow.
func mulFrexpLdexp(a, r float64) (v float64, ok bool) {
	const expMask = 0x7ff
	b := math.Float64bits(r)
	be := int(b>>52) & expMask
	if be == 0 || be == expMask {
		return 0, false
	}
	exp := be - 0x3fe
	y := a * math.Float64frombits(b&^(expMask<<52)|0x3fe<<52)
	ye := int(math.Float64bits(y)>>52) & expMask
	if ye == 0 || ye == expMask || ye+exp < 1 || ye+exp >= expMask || exp+0x3ff >= expMask {
		return 0, false
	}
	return y * math.Float64frombits(uint64(exp+0x3ff)<<52), true
}

// pow075Exact reports whether pow075 reproduces math.Pow bit-for-bit on
// this platform, checked once over a deterministic probe set. True
// wherever math.Pow is the portable Go implementation (everything but
// s390x); if a platform ever diverges, the kernel falls back to math.Pow.
var pow075Exact = func() bool {
	x := 0.999999
	for i := 0; i < 256; i++ {
		if pow075(x) != math.Pow(x, 0.75) {
			return false
		}
		x *= 0.917
	}
	return true
}()

// fillLegs computes the AP-side and client-side antenna-leg distances of
// the bounce paths in paths[first:]. A bounce length is
// txPos.Dist(via) + via.Dist(rxPos); each Dist result depends on one
// antenna and the via only, so computing each leg once per antenna and
// adding the memoized float64s per pair is the identical addition the
// scalar reference performs — pure-function memoization, not a
// reassociation. The legs held between calls are those of the committed
// epoch's vias and client: each evaluation recomputes exactly the legs
// whose via or client changed, then commits them. So a path whose via
// matches the epoch key keeps its AP-side legs, and its client-side legs
// too unless the client moved.
func (m *Model) fillLegs(client geom.Point, first int) {
	c := &m.cache
	nPaths := len(m.paths)
	clientSame := c.epochValid && client == c.client
	for pi := first; pi < nPaths; pi++ {
		p := &m.paths[pi]
		if !p.bounce {
			continue
		}
		viaSame := c.epochValid && p.via == c.vias[pi]
		if viaSame && clientSame {
			continue
		}
		if !viaSame {
			for txi, txOff := range m.apAnts {
				m.legsTx[txi*nPaths+pi] = m.ap.Add(txOff).Dist(p.via)
			}
		}
		for rxi, rxOff := range m.clientAnts {
			m.legsRx[rxi*nPaths+pi] = p.via.Dist(client.Add(rxOff))
		}
	}
}

// laneChunk is how many chains one breakpoint or phasor chunk gathers;
// an evaluation's batch runs in chunks of this size, each a multiple of
// the four-lane block, so only the batch's last chunk has a lane tail.
const laneChunk = 32

// laneScratch is the gather space of the breakpoint and phasor passes.
// evalIncremental declares one on its stack per evaluation, and a Model
// carries no extra heap scratch.
type laneScratch struct {
	x, y [2 * laneChunk]float64
	idx  [laneChunk]int32
}

// breakpointPass multiplies the gathered breakpoint excess-loss factors
// into amps. Each amplitude gets exactly the scalar reference's op
// sequence — amp * pow(bp/length, (n-2)/2) when length > bp. Under
// pow075OK the ratios of a batch run pow075's sequence element-wise
// through fastmath's slice kernels: Log, ×−0.25, Exp, then Frexp's
// mantissa product and Ldexp as mulFrexpLdexp's exponent arithmetic,
// declining to math.Frexp and math.Ldexp where it must. Those kernels
// return the library's bits, so every factor is pow075's, which
// pow075Exact pins to math.Pow.
func (m *Model) breakpointPass(amps, lens []float64, idx []int32, n int, ls *laneScratch) {
	bp := m.cfg.PathLossBreakM
	if m.pow075OK {
		for i := 0; i < n; {
			nq := 0
			for ; i < n && nq < laneChunk; i++ {
				pi := idx[i]
				if length := lens[pi]; length > bp {
					ls.x[nq] = bp / length
					ls.idx[nq] = pi
					nq++
				}
			}
			x, a := ls.x[:nq], ls.y[:nq]
			fastmath.LogSlice(x, a)
			for k := range a {
				a[k] *= -0.25
			}
			fastmath.ExpSlice(a, a)
			for k, r := range x {
				f, ok := mulFrexpLdexp(a[k], r)
				if !ok {
					frac, exp := math.Frexp(r)
					f = math.Ldexp(a[k]*frac, exp)
				}
				amps[ls.idx[k]] *= f
			}
		}
		return
	}
	pe := (m.cfg.PathLossExponent - 2) / 2
	for i := 0; i < n; i++ {
		pi := idx[i]
		if length := lens[pi]; length > bp {
			amps[pi] *= math.Pow(bp/length, pe)
		}
	}
}

// phasorPass fills ph0/rot for the paths named by idx[:n] from their
// cached lengths and amplitudes: the initial phasor amp·e^{-j2πf0L/c} and
// the per-subcarrier rotation e^{-j2πΔfL/c}, exactly as cmplx.Rect
// builds them (Sincos, then the r·cos / r·sin products; the rotation's
// unit radius makes its products the Sincos results themselves). Both
// angles of every path in a batch go through one SincosSlice call.
func (m *Model) phasorPass(amps, lens []float64, ph0, rot []complex128, idx []int32, n int, ls *laneScratch) {
	// k0/kd fold the constant prefix of the reference's angle expression
	// -2·π·f·length/c; the remaining ·length and /c stay separate ops in
	// the reference's order, so the angle is bit-identical.
	k0 := -2 * math.Pi * m.f0
	kd := -2 * math.Pi * m.df
	for lo := 0; lo < n; lo += laneChunk {
		batch := idx[lo:min(lo+laneChunk, n)]
		sin, cos := ls.x[:2*len(batch)], ls.y[:2*len(batch)]
		for k, pi := range batch {
			length := lens[pi]
			sin[2*k] = k0 * length / SpeedOfLight
			sin[2*k+1] = kd * length / SpeedOfLight
		}
		fastmath.SincosSlice(sin, sin, cos) // the sines overwrite the angles
		for k, pi := range batch {
			amp := amps[pi]
			ph0[pi] = complex(amp*cos[2*k], amp*sin[2*k])
			rot[pi] = complex(cos[2*k+1], sin[2*k+1])
		}
	}
}

// sweepFused runs the chain sweep for every antenna pair at once on the
// path-major scratch, two pair columns per AVX2 kernel call and four
// subcarriers per pass. Each (subcarrier, pair) cell still receives
// exactly the path-order sum of exactly the same chain values — the
// kernel's lanes are independent pairs and its complex multiply matches
// the compiler's operand order per lane (chainquad_amd64.s) — so fusing
// pairs changes no bits, it only removes the per-pair passes over the
// chain state. out rows are the natural CSI layout (pair-contiguous per
// subcarrier); pref rows use the same sc-major layout when fused.
//
// n is the chain-row count, snap the row count whose running sums extend
// the prefix memo (first - start in evalIncremental), seed nonzero to
// start the sums from the memoized prefix. scale is the shadowing factor
// the kernel folds into the finished sums (Matrix.Scale's exact per-entry
// operation, applied after the unscaled prefix snapshot), replacing the
// separate whole-matrix Scale pass.
//
//mobilint:hotpath
func (m *Model) sweepFused(out, pref []complex128, nSub, nPairs, n, snap, seed int, scale float64) {
	stride := uintptr(nPairs) * 16
	for sc := 0; sc < nSub; sc += 4 {
		row := sc * nPairs
		for po := 0; po < nPairs; po += 2 {
			chainQuad2(&m.contribsP[po], &m.rotsP[po], &out[row+po], &pref[row+po], stride, n, snap, seed, scale)
		}
	}
}

// evalIncremental evaluates the response into h (unscaled by shadowing
// unless fused) from first, the lowest path whose epoch key (via
// position, gain) changed since the committed epoch, or 0 when the client
// moved or there is no epoch. An unchanged via and gain imply an
// unchanged length for every antenna pair (the client did not move, the
// AP never does), hence a bit-identical phasor series.
//
//   - Paths [0, start) are served by the memoized ordered prefix sum: the
//     per-subcarrier accumulator is seeded with pref, skipping their
//     chains entirely.
//   - Paths [start, first) re-run their chains from the memoized (ph0,
//     rot) phasors — no length, breakpoint, or Sincos work — while the
//     running sum is snapshotted at the `first` boundary to extend the
//     prefix for the next call.
//   - Paths [first, nPaths) are re-keyed on (length, gain): an unchanged
//     key reuses the memoized phasors, a changed one recomputes and
//     overwrites them. At first = 0 this is every path.
//
// Every pair is re-keyed first, gathering each changed chain as
// pair*nPaths+pi, so one breakpoint batch and one phasor batch serve the
// whole evaluation; then each pair's chains are gathered or swept. The
// accumulation order over paths is untouched in all three regions, so
// the output is bit-identical to the scalar reference.
//
//mobilint:hotpath
func (m *Model) evalIncremental(client geom.Point, h *csi.Matrix, first int) {
	c := &m.cache
	nPaths := len(m.paths)
	nSub := m.cfg.Subcarriers
	nPairs := m.cfg.NTx * m.cfg.NRx

	start := 0
	if c.prefLen <= first {
		start = c.prefLen
	}

	// Re-key the suffix of every pair: (length, gain) fully determine the
	// phasor pair — amp is a pure function of them and the fixed config.
	// Gains are compared against the previous epoch's values (c.gains is
	// only rewritten by commit), so every pair sees the same
	// stale-or-fresh verdict.
	lambdaScale := m.cfg.Wavelength() / (4 * math.Pi)
	m.fillLegs(client, first)
	nb := 0
	for txi, txOff := range m.apAnts {
		txPos := m.ap.Add(txOff)
		legsTx := m.legsTx[txi*nPaths : (txi+1)*nPaths]
		for rxi, rxOff := range m.clientAnts {
			rxPos := client.Add(rxOff)
			legsRx := m.legsRx[rxi*nPaths : (rxi+1)*nPaths]
			base := (txi*m.cfg.NRx + rxi) * nPaths
			lens := c.lens[base : base+nPaths]
			amps := m.amps[base : base+nPaths]
			for pi := first; pi < nPaths; pi++ {
				p := &m.paths[pi]
				var length float64
				if p.bounce {
					length = legsTx[pi] + legsRx[pi]
				} else {
					length = txPos.Dist(rxPos)
				}
				if length < 0.1 {
					length = 0.1
				}
				if length != lens[pi] || p.gain != c.gains[pi] {
					lens[pi] = length
					amps[pi] = p.gain * lambdaScale / length
					m.powIdx[nb] = int32(base + pi)
					nb++
				}
			}
		}
	}
	c.pathEvals += uint64(nb)
	c.pathReuses += uint64(nPairs*nPaths - nb)
	var ls laneScratch
	if m.cfg.PathLossBreakM > 0 && m.cfg.PathLossExponent > 2 {
		m.breakpointPass(m.amps, c.lens, m.powIdx, nb, &ls)
	}
	m.phasorPass(m.amps, c.lens, c.ph0, c.rot, m.powIdx, nb, &ls)

	// Gather the chains to run: memoized phasors for paths
	// [start, first), fresh-or-reused phasors for [first, nPaths).
	data := h.Data()
	for pair := 0; pair < nPairs; pair++ {
		ph0 := c.ph0[pair*nPaths : (pair+1)*nPaths]
		rot := c.rot[pair*nPaths : (pair+1)*nPaths]
		if m.fused {
			for pi := start; pi < nPaths; pi++ {
				rowBase := (pi - start) * nPairs
				m.contribsP[rowBase+pair] = ph0[pi]
				m.rotsP[rowBase+pair] = rot[pi]
			}
			continue
		}
		m.contribs = append(m.contribs[:0], ph0[start:nPaths]...)
		chainSweepPrefixed(data[pair:], c.pref[pair*nSub:(pair+1)*nSub], m.contribs, rot[start:nPaths],
			nSub, nPairs, start, first-start)
	}
	if m.fused {
		seed := 0
		if start > 0 {
			seed = 1
		}
		m.sweepFused(data, c.pref, nSub, nPairs, nPaths-start, first-start, seed, c.shadowScale)
	}
	c.prefLen = first
}

// chainSweepPrefixed advances every chain in contribs by its rotation
// across nSub subcarriers, writing the per-subcarrier path-order sums to
// out[sc*stride]. Each subcarrier's accumulator starts from the memoized
// ordered prefix (when start > 0), runs the first snap chains and
// snapshots the extended prefix at that boundary, then finishes with the
// remaining chains. When snap is 0 the prefix is already exactly pref's
// contents, so the (bit-identical) store is skipped.
//
// Four subcarriers retire per pass over the chains: each chain value is
// loaded once, advanced by the same four sequential multiplies the
// one-subcarrier loop would apply, and stored once, while four
// accumulators collect the four subcarriers' sums — same multiply
// sequence per chain, same addition order per subcarrier (so the
// snapshot values are exactly the sums the one-subcarrier loop would
// snapshot), a quarter of the chain-state memory traffic, and four
// independent accumulation chains for the FPU to overlap. rots is only
// read.
//
//mobilint:hotpath
func chainSweepPrefixed(out, pref, contribs, rots []complex128, nSub, stride, start, snap int) {
	rots = rots[:len(contribs)]
	idx := 0
	sc := 0
	for ; sc+4 <= nSub; sc += 4 {
		var s0, s1, s2, s3 complex128
		if start > 0 {
			s0, s1, s2, s3 = pref[sc], pref[sc+1], pref[sc+2], pref[sc+3]
		}
		for pi := 0; pi < snap; pi++ {
			ci := contribs[pi]
			r := rots[pi]
			s0 += ci
			ci *= r
			s1 += ci
			ci *= r
			s2 += ci
			ci *= r
			s3 += ci
			ci *= r
			contribs[pi] = ci
		}
		if snap > 0 {
			pref[sc], pref[sc+1], pref[sc+2], pref[sc+3] = s0, s1, s2, s3
		}
		for pi := snap; pi < len(contribs); pi++ {
			ci := contribs[pi]
			r := rots[pi]
			s0 += ci
			ci *= r
			s1 += ci
			ci *= r
			s2 += ci
			ci *= r
			s3 += ci
			ci *= r
			contribs[pi] = ci
		}
		out[idx] = s0
		idx += stride
		out[idx] = s1
		idx += stride
		out[idx] = s2
		idx += stride
		out[idx] = s3
		idx += stride
	}
	for ; sc < nSub; sc++ {
		var sum complex128
		if start > 0 {
			sum = pref[sc]
		}
		for pi := 0; pi < snap; pi++ {
			sum += contribs[pi]
			contribs[pi] *= rots[pi]
		}
		if snap > 0 {
			pref[sc] = sum
		}
		for pi := snap; pi < len(contribs); pi++ {
			sum += contribs[pi]
			contribs[pi] *= rots[pi]
		}
		out[idx] = sum
		idx += stride
	}
}
