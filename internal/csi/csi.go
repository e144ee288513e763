// Package csi models Channel State Information as exported by commodity
// Atheros-class chipsets: a complex channel gain per OFDM subcarrier per
// transmit/receive antenna pair, together with the similarity metric
// (paper Eq. 1) the mobility classifier is built on, temporal correlation
// for staleness modeling, and the quantized feedback representation used
// by explicit beamforming.
package csi

import (
	"fmt"
	"math"
	"math/cmplx"
)

// Matrix is a CSI snapshot: channel gains for Subcarriers x NTx x NRx.
// Values are stored in subcarrier-major order: index = (sc*NTx + tx)*NRx + rx.
type Matrix struct {
	Subcarriers int
	NTx, NRx    int
	data        []complex128
}

// NewMatrix allocates a zero CSI matrix with the given dimensions.
// It panics if any dimension is non-positive.
func NewMatrix(subcarriers, nTx, nRx int) *Matrix {
	if subcarriers <= 0 || nTx <= 0 || nRx <= 0 {
		panic(fmt.Sprintf("csi: invalid dimensions %dx%dx%d", subcarriers, nTx, nRx))
	}
	return &Matrix{
		Subcarriers: subcarriers,
		NTx:         nTx,
		NRx:         nRx,
		data:        make([]complex128, subcarriers*nTx*nRx),
	}
}

func (m *Matrix) idx(sc, tx, rx int) int { return (sc*m.NTx+tx)*m.NRx + rx }

// At returns the channel gain for subcarrier sc from transmit antenna tx to
// receive antenna rx.
func (m *Matrix) At(sc, tx, rx int) complex128 { return m.data[m.idx(sc, tx, rx)] }

// Set stores the channel gain for (sc, tx, rx).
func (m *Matrix) Set(sc, tx, rx int, v complex128) { m.data[m.idx(sc, tx, rx)] = v }

// SameShape reports whether m and o have identical dimensions.
func (m *Matrix) SameShape(o *Matrix) bool {
	return o != nil && m.Subcarriers == o.Subcarriers && m.NTx == o.NTx && m.NRx == o.NRx
}

// Data returns the backing storage in index order (sc, tx, rx — rx
// fastest). It aliases the matrix: writes through it are writes to the
// matrix. The hot-path kernels use it to avoid per-entry index
// recomputation; everyone else should prefer At/Set.
func (m *Matrix) Data() []complex128 { return m.data }

// Zero clears every entry in place.
func (m *Matrix) Zero() {
	for i := range m.data {
		m.data[i] = 0
	}
}

// AvgPower returns the mean of |H|^2 across all entries — the wideband
// channel power gain used for RSSI.
func (m *Matrix) AvgPower() float64 {
	if len(m.data) == 0 {
		return 0
	}
	var s float64
	for _, v := range m.data {
		re, im := real(v), imag(v)
		s += re*re + im*im
	}
	return s / float64(len(m.data))
}

// SubcarrierPower returns the mean |H|^2 over antenna pairs for subcarrier
// sc — the per-subcarrier gain used by effective-SNR computations.
func (m *Matrix) SubcarrierPower(sc int) float64 {
	var s float64
	n := m.NTx * m.NRx
	base := sc * n
	for i := 0; i < n; i++ {
		v := m.data[base+i]
		re, im := real(v), imag(v)
		s += re*re + im*im
	}
	return s / float64(n)
}

// Profile is one snapshot's amplitude profile: |H| of every entry in
// storage order and their sum, which is all Eq. (1) reads of a snapshot.
// A stream of snapshots needs each profile once: consecutive comparisons
// share one operand. The zero value is an empty profile; Set reuses its
// buffer, so steady-state calls are allocation-free.
type Profile struct {
	sub, nTx, nRx int
	amps          []float64
	sum           float64
}

// grow returns a scratch slice of length n backed by buf, reallocating
// only when the capacity is insufficient.
func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// Set makes p the amplitude profile of m, summing the amplitudes in
// storage order.
func (p *Profile) Set(m *Matrix) {
	p.sub, p.nTx, p.nRx = m.Subcarriers, m.NTx, m.NRx
	p.amps = grow(p.amps, len(m.data))
	var sum float64
	for i, v := range m.data {
		a := cmplx.Abs(v)
		p.amps[i] = a
		sum += a
	}
	p.sum = sum
}

// Similarity returns Eq. (1) (see Workspace.Similarity) for the
// snapshots whose profiles p and q are. Profiles of different shapes,
// empty profiles and degenerate (zero-variance) profiles return 0.
func (p *Profile) Similarity(q *Profile) float64 {
	if p.sub != q.sub || p.nTx != q.nTx || p.nRx != q.nRx || len(p.amps) == 0 {
		return 0
	}
	n := len(p.amps)
	ma := p.sum / float64(n)
	mb := q.sum / float64(n)
	amps := q.amps[:n]
	var sab, saa, sbb float64
	for i, a := range p.amps {
		da := a - ma
		db := amps[i] - mb
		sab += da * db
		saa += da * da
		sbb += db * db
	}
	if saa == 0 || sbb == 0 {
		return 0
	}
	return sab / math.Sqrt(saa*sbb)
}

// Workspace holds reusable scratch for comparing two arbitrary snapshots.
// The zero value is ready to use; buffers grow on first use and are
// reused after that, so steady-state calls are allocation-free. A
// Workspace must not be shared between goroutines.
type Workspace struct {
	a, b Profile
}

// Similarity implements the paper's Eq. (1): the sample correlation of the
// two snapshots' CSI amplitude profiles, taken over all subcarriers and
// antenna pairs. It is 1 for identical channels, near 1 for a stable
// channel observed through noise, and near 0 for decorrelated channels.
// Mismatched shapes or degenerate (zero-variance) profiles return 0. It
// takes each snapshot's profile once and correlates the two.
//
//mobilint:hotpath
func (w *Workspace) Similarity(a, b *Matrix) float64 {
	if a == nil || b == nil || !a.SameShape(b) {
		return 0
	}
	w.a.Set(a)
	w.b.Set(b)
	return w.a.Similarity(&w.b)
}

// TemporalCorrelation returns the magnitude of the normalized complex inner
// product of the two snapshots, rho = |<a, b>| / (||a|| ||b||), in [0, 1].
// This is the correlation that governs equalization/precoding with a stale
// channel estimate: the post-equalization SINR with estimate b of true
// channel a degrades as rho drops (see phy.StaleSINR).
func TemporalCorrelation(a, b *Matrix) float64 {
	if a == nil || b == nil || !a.SameShape(b) {
		return 0
	}
	var dot complex128
	var na, nb float64
	for i := range a.data {
		dot += a.data[i] * cmplx.Conj(b.data[i])
		re, im := real(a.data[i]), imag(a.data[i])
		na += re*re + im*im
		re, im = real(b.data[i]), imag(b.data[i])
		nb += re*re + im*im
	}
	if na == 0 || nb == 0 {
		return 0
	}
	rho := cmplx.Abs(dot) / math.Sqrt(na*nb)
	if rho > 1 {
		rho = 1 // numerical guard
	}
	return rho
}

// QuantizeInto writes into dst a copy of m with each real and imaginary
// part quantized to the given number of bits (1..16) relative to the
// matrix's maximum component magnitude — the representation carried by an
// 802.11 compressed CSI feedback frame (the standard allows up to 8 bits
// per component). A nil or shape-mismatched dst is replaced by a fresh
// matrix, and the (possibly reallocated) dst is returned, so steady-state
// callers that pass the previous return value back in never allocate.
// dst must not be m itself — the quantization scale is derived from m
// while dst is being overwritten.
func (m *Matrix) QuantizeInto(dst *Matrix, bits int) *Matrix {
	if bits < 1 {
		bits = 1
	}
	if bits > 16 {
		bits = 16
	}
	var maxAbs float64
	for _, v := range m.data {
		if a := math.Abs(real(v)); a > maxAbs {
			maxAbs = a
		}
		if a := math.Abs(imag(v)); a > maxAbs {
			maxAbs = a
		}
	}
	q := dst
	if q == nil || !m.SameShape(q) {
		q = NewMatrix(m.Subcarriers, m.NTx, m.NRx)
	}
	if maxAbs == 0 {
		q.Zero()
		return q
	}
	levels := float64(int(1) << (bits - 1)) // signed range
	step := maxAbs / levels
	quant := func(x float64) float64 {
		return math.Round(x/step) * step
	}
	for i, v := range m.data {
		q.data[i] = complex(quant(real(v)), quant(imag(v)))
	}
	return q
}

// FeedbackBits returns the size in bits of an explicit CSI feedback report
// for this matrix at the given component resolution: 2 components per entry
// plus a 3-byte SNR/stream header per receive chain.
func (m *Matrix) FeedbackBits(bitsPerComponent int) int {
	return m.Subcarriers*m.NTx*m.NRx*2*bitsPerComponent + m.NRx*24
}

// ColumnInto writes the NTx-element channel vector from all transmit
// antennas to receive antenna rx on subcarrier sc — the per-user channel
// row used by MU-MIMO precoding — into the caller-owned dst: dst is
// grown only when its capacity is insufficient, so steady-state callers that pass the previous return
// value back in never allocate.
//
//mobilint:hotpath
func (m *Matrix) ColumnInto(dst []complex128, sc, rx int) []complex128 {
	if cap(dst) < m.NTx {
		dst = make([]complex128, m.NTx)
	}
	dst = dst[:m.NTx]
	for tx := 0; tx < m.NTx; tx++ {
		dst[tx] = m.At(sc, tx, rx)
	}
	return dst
}

// Scale multiplies every entry by the real factor s, in place, and returns m.
func (m *Matrix) Scale(s float64) *Matrix {
	for i := range m.data {
		m.data[i] *= complex(s, 0)
	}
	return m
}
