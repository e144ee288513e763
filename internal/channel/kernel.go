package channel

import (
	"math"

	"mobiwlan/internal/csi"
	"mobiwlan/internal/fastmath"
	"mobiwlan/internal/geom"
)

// This file holds the batched struct-of-arrays response kernel: the two
// cache-backed evaluation strategies (direct and incremental) that replace
// the old per-(pair, subcarrier, path) series cache, plus the exact
// breakpoint power helper. responseUncached in channel.go stays the scalar
// reference both strategies are tested bit-for-bit against.
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
// Both strategies are organised as struct-of-arrays passes: antenna-leg
// distances, then per-path amplitudes, then the gathered breakpoint
// powers, then the phasor Sincos fill, then the subcarrier chain loop.
// Splitting the per-path work this way changes no per-value operation —
// each pass applies exactly the op subsequence the scalar reference
// applies to that value — but it puts consecutive long-latency calls
// (Pow's Log/Exp pair, Sincos) back to back in tight loops, so the CPU
// overlaps their dependency chains across paths instead of serialising
// one path's full pipeline at a time.
//
// Bit-identity argument (see DESIGN.md, "Batched SoA response kernel"):
// the value the uncached reference adds at subcarrier sc for path pi is
// the initial phasor advanced by sc sequential complex multiplies, and the
// per-subcarrier total is accumulated in path order. Both strategies below
// preserve exactly that: chains always advance by the same `*=` sequence
// from the same initial phasor (memoized or recomputed, the value is a
// pure function of (length, gain) and the fixed config), and every
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

// fillLegs computes the client-independent (AP-side) and client-dependent
// antenna-leg distances for every bounce path in paths[lo:]. A bounce
// length is txPos.Dist(via) + via.Dist(rxPos); each Dist result depends
// on one antenna only, so computing each leg once per antenna and adding
// the memoized float64s per pair is the identical addition the scalar
// reference performs — pure-function memoization, not a reassociation.
func (m *Model) fillLegs(client geom.Point, lo int) {
	nPaths := len(m.paths)
	for txi, txOff := range m.apAnts {
		txPos := m.ap.Add(txOff)
		legs := m.legsTx[txi*nPaths : (txi+1)*nPaths]
		for pi := lo; pi < nPaths; pi++ {
			if p := &m.paths[pi]; p.bounce {
				legs[pi] = txPos.Dist(p.via)
			}
		}
	}
	for rxi, rxOff := range m.clientAnts {
		rxPos := client.Add(rxOff)
		legs := m.legsRx[rxi*nPaths : (rxi+1)*nPaths]
		for pi := lo; pi < nPaths; pi++ {
			if p := &m.paths[pi]; p.bounce {
				legs[pi] = p.via.Dist(rxPos)
			}
		}
	}
}

// breakpointPass multiplies the gathered breakpoint excess-loss factors
// into amps. Each amplitude gets exactly the scalar reference's op
// sequence — amp * pow(bp/length, (n-2)/2) when length > bp — but the
// Pow calls for all qualifying paths run back to back, so their long
// Log/Exp dependency chains overlap across paths.
func (m *Model) breakpointPass(amps, lens []float64, idx []int32, n int) {
	bp := m.cfg.PathLossBreakM
	if m.pow075OK {
		if pow4OK {
			// Quad path: gather qualifying ratios four at a time so the
			// Log→Exp chains overlap (pow4.go). Lanes are independent, so
			// grouping changes no bits; the tail runs the scalar pow075,
			// which the probes pin to the same outputs.
			var rx [4]float64
			var ri [4]int32
			nq := 0
			for i := 0; i < n; i++ {
				pi := idx[i]
				if length := lens[pi]; length > bp {
					rx[nq] = bp / length
					ri[nq] = pi
					nq++
					if nq == 4 {
						y0, y1, y2, y3 := pow075x4(rx[0], rx[1], rx[2], rx[3])
						amps[ri[0]] *= y0
						amps[ri[1]] *= y1
						amps[ri[2]] *= y2
						amps[ri[3]] *= y3
						nq = 0
					}
				}
			}
			for k := 0; k < nq; k++ {
				amps[ri[k]] *= pow075(rx[k])
			}
			return
		}
		for i := 0; i < n; i++ {
			pi := idx[i]
			if length := lens[pi]; length > bp {
				amps[pi] *= pow075(bp / length)
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
// unit radius makes its products the Sincos results themselves).
func (m *Model) phasorPass(amps, lens []float64, ph0, rot []complex128, idx []int32, n int) {
	// k0/kd fold the constant prefix of the reference's angle expression
	// -2·π·f·length/c; the remaining ·length and /c stay separate ops in
	// the reference's order, so the angle is bit-identical.
	k0 := -2 * math.Pi * m.f0
	kd := -2 * math.Pi * m.df
	if fastmath.SincosExact {
		// Branchless transcription of math.Sincos (fastmath): same bits,
		// no octant mispredicts, and consecutive calls overlap.
		for i := 0; i < n; i++ {
			pi := idx[i]
			length := lens[pi]
			amp := amps[pi]
			s0, c0 := fastmath.Sincos(k0 * length / SpeedOfLight)
			sd, cd := fastmath.Sincos(kd * length / SpeedOfLight)
			ph0[pi] = complex(amp*c0, amp*s0)
			rot[pi] = complex(cd, sd)
		}
		return
	}
	for i := 0; i < n; i++ {
		pi := idx[i]
		length := lens[pi]
		amp := amps[pi]
		s0, c0 := math.Sincos(k0 * length / SpeedOfLight)
		sd, cd := math.Sincos(kd * length / SpeedOfLight)
		ph0[pi] = complex(amp*c0, amp*s0)
		rot[pi] = complex(cd, sd)
	}
}

// evalDirect recomputes every path chain: the client moved (or the cache
// is cold), so every pair's path lengths changed and no per-path state is
// reusable. The freshly computed (length, ph0, rot) triples are stored
// into the per-(pair, path) memo so the next incremental call can reuse
// them, and the prefix memo is invalidated.
//
//mobilint:hotpath
func (m *Model) evalDirect(client geom.Point, h *csi.Matrix) {
	c := &m.cache
	nPaths := len(m.paths)
	nSub := m.cfg.Subcarriers
	nPairs := m.cfg.NTx * m.cfg.NRx
	lambdaScale := m.cfg.Wavelength() / (4 * math.Pi)
	bpActive := m.cfg.PathLossBreakM > 0 && m.cfg.PathLossExponent > 2
	data := h.Data()

	m.fillLegs(client, 0)
	// Every path is recomputed, so the pass index set is the identity.
	idx := m.powIdx[:nPaths]
	for pi := range idx {
		idx[pi] = int32(pi)
	}

	for txi, txOff := range m.apAnts {
		txPos := m.ap.Add(txOff)
		legsTx := m.legsTx[txi*nPaths : (txi+1)*nPaths]
		for rxi, rxOff := range m.clientAnts {
			rxPos := client.Add(rxOff)
			legsRx := m.legsRx[rxi*nPaths : (rxi+1)*nPaths]
			pair := txi*m.cfg.NRx + rxi
			lens := c.lens[pair*nPaths : (pair+1)*nPaths]
			ph0 := c.ph0[pair*nPaths : (pair+1)*nPaths]
			rot := c.rot[pair*nPaths : (pair+1)*nPaths]
			amps := m.amps[:nPaths]

			// Lengths and base amplitudes.
			for pi := range m.paths {
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
				lens[pi] = length
				amps[pi] = p.gain * lambdaScale / length
			}
			if bpActive {
				m.breakpointPass(amps, lens, idx, nPaths)
			}
			m.phasorPass(amps, lens, ph0, rot, idx, nPaths)

			if m.fused {
				// Scatter this pair's chains into the path-major rows the
				// fused sweep walks; the sweep itself runs after all pairs'
				// phasors are in place.
				for pi := 0; pi < nPaths; pi++ {
					m.contribsP[pi*nPairs+pair] = ph0[pi]
					m.rotsP[pi*nPairs+pair] = rot[pi]
				}
				continue
			}
			m.contribs = append(m.contribs[:0], ph0...)
			chainSweep(data[pair:], m.contribs, rot[:nPaths], nSub, nPairs)
		}
	}
	if m.fused {
		m.sweepFused(data, c.pref, nSub, nPairs, nPaths, 0, 0, c.shadowScale)
	}
	c.pathEvals += uint64(nPairs * nPaths)
	c.prefValid = false
	c.prefLen = 0
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
// the prefix memo (0 outside incremental calls), seed nonzero to start
// the sums from the memoized prefix. scale is the shadowing factor the
// kernel folds into the finished sums (Matrix.Scale's exact per-entry
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

// chainSweep advances every chain in contribs by its rotation across nSub
// subcarriers, writing the per-subcarrier path-order sums to out[sc*stride].
// Four subcarriers retire per pass over the chains: each chain value is
// loaded once, advanced by the same four sequential multiplies the
// one-subcarrier loop would apply, and stored once, while four
// accumulators collect the four subcarriers' sums — same multiply
// sequence per chain, same addition order per subcarrier, a quarter of
// the chain-state memory traffic, and four independent accumulation
// chains for the FPU to overlap.
//
//mobilint:hotpath
func chainSweep(out, contribs, rots []complex128, nSub, stride int) {
	rots = rots[:len(contribs)]
	idx := 0
	sc := 0
	for ; sc+4 <= nSub; sc += 4 {
		var s0, s1, s2, s3 complex128
		for pi := range contribs {
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
		for pi := range contribs {
			sum += contribs[pi]
			contribs[pi] *= rots[pi]
		}
		out[idx] = sum
		idx += stride
	}
}

// evalIncremental serves a call where the client is unchanged but some
// scatterers moved. Paths split at `first`, the lowest index whose epoch
// key (via position, gain) changed: an unchanged via and gain imply an
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
//   - Paths [first, nPaths) are re-keyed on (length, gain) exactly like
//     the old per-path cache: an unchanged key reuses the memoized
//     phasors, a changed one recomputes and overwrites them.
//
// The accumulation order over paths is untouched in all three regions, so
// the output is bit-identical to the scalar reference.
//
//mobilint:hotpath
func (m *Model) evalIncremental(client geom.Point, h *csi.Matrix) {
	c := &m.cache
	nPaths := len(m.paths)
	nSub := m.cfg.Subcarriers
	nPairs := m.cfg.NTx * m.cfg.NRx

	first := 0
	for first < nPaths {
		p := m.paths[first]
		if p.via != c.vias[first] || p.gain != c.gains[first] {
			break
		}
		first++
	}
	start := 0
	if c.prefValid && c.prefLen <= first {
		start = c.prefLen
	}

	lambdaScale := m.cfg.Wavelength() / (4 * math.Pi)
	bpActive := m.cfg.PathLossBreakM > 0 && m.cfg.PathLossExponent > 2
	data := h.Data()
	m.fillLegs(client, first)
	for txi, txOff := range m.apAnts {
		txPos := m.ap.Add(txOff)
		legsTx := m.legsTx[txi*nPaths : (txi+1)*nPaths]
		for rxi, rxOff := range m.clientAnts {
			rxPos := client.Add(rxOff)
			legsRx := m.legsRx[rxi*nPaths : (rxi+1)*nPaths]
			pair := txi*m.cfg.NRx + rxi
			lens := c.lens[pair*nPaths : (pair+1)*nPaths]
			ph0 := c.ph0[pair*nPaths : (pair+1)*nPaths]
			rot := c.rot[pair*nPaths : (pair+1)*nPaths]
			pref := c.pref[pair*nSub : (pair+1)*nSub]
			amps := m.amps[:nPaths]

			// Re-key the suffix: (length, gain) fully determine the phasor
			// pair — amp is a pure function of them and the fixed config.
			// Gains are compared against the previous epoch's values
			// (c.gains is only rewritten by commit), so every pair sees the
			// same stale-or-fresh verdict. Changed paths are gathered and
			// rebuilt by the batched passes below.
			nb := 0
			idx := m.powIdx[:nPaths]
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
				if length == lens[pi] && p.gain == c.gains[pi] {
					c.pathReuses++
				} else {
					c.pathEvals++
					lens[pi] = length
					amps[pi] = p.gain * lambdaScale / length
					idx[nb] = int32(pi)
					nb++
				}
			}
			c.pathReuses += uint64(first)
			if bpActive {
				m.breakpointPass(amps, lens, idx, nb)
			}
			m.phasorPass(amps, lens, ph0, rot, idx, nb)

			// Gather the chains to run: memoized phasors for paths
			// [start, first), fresh-or-reused phasors for [first, nPaths).
			if m.fused {
				for pi := start; pi < nPaths; pi++ {
					rowBase := (pi - start) * nPairs
					m.contribsP[rowBase+pair] = ph0[pi]
					m.rotsP[rowBase+pair] = rot[pi]
				}
				continue
			}
			m.contribs = m.contribs[:0]
			m.rots = m.rots[:0]
			for pi := start; pi < nPaths; pi++ {
				m.contribs = append(m.contribs, ph0[pi])
				m.rots = append(m.rots, rot[pi])
			}
			chainSweepPrefixed(data[pair:], pref, m.contribs, m.rots,
				nSub, nPairs, start, first-start)
		}
	}
	if m.fused {
		seed := 0
		if start > 0 {
			seed = 1
		}
		m.sweepFused(data, c.pref, nSub, nPairs, nPaths-start, first-start, seed, c.shadowScale)
	}
	c.prefLen = first
	c.prefValid = true
}

// chainSweepPrefixed is chainSweep with prefix seeding: each subcarrier's
// accumulator starts from the memoized ordered prefix (when start > 0),
// runs the first snap chains and snapshots the extended prefix at that
// boundary, then finishes with the remaining chains. Same four-subcarrier
// retirement as chainSweep; the snapshot values are exactly the sums the
// one-subcarrier loop would snapshot. When snap is 0 the prefix is
// already exactly pref's contents, so the (bit-identical) store is
// skipped.
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
