// Package beamforming implements the paper's §6 protocols: single-user
// transmit beamforming (MRT) with explicit quantized CSI feedback, a
// zero-forcing MU-MIMO emulator serving three single-antenna clients from
// a three-antenna AP, and the mobility-adaptive CSI feedback scheduler
// that picks the sounding period from the client's mobility state.
package beamforming

import (
	"math"
	"math/cmplx"
)

// CMatrix is a dense complex matrix stored row-major.
type CMatrix struct {
	Rows, Cols int
	Data       []complex128
}

// At returns element (i, j).
func (m *CMatrix) At(i, j int) complex128 { return m.Data[i*m.Cols+j] }

// Set stores element (i, j).
func (m *CMatrix) Set(i, j int, v complex128) { m.Data[i*m.Cols+j] = v }

// ZFSolver computes zero-forcing precoding vectors without allocating:
// the Gauss-Jordan scratch lives on the solver and the weights are
// written into a caller-owned buffer, following the same reuse contract
// as channel.ResponseInto. A ZFSolver is not safe for concurrent use.
type ZFSolver struct {
	a, inv CMatrix
}

// WeightsInto computes the zero-forcing vectors for one subcarrier's
// normalized user rows into dst and returns it with ok=true: one unit-norm
// NTx-vector per user, column u of the inverse of the rows. On a singular
// or non-square system (zero-forcing needs as many transmit antennas as
// users) it returns (dst, false) with dst's contents unspecified, so the
// caller keeps its buffer either way. dst is grown only when too small;
// steady-state callers never allocate.
//
//mobilint:hotpath
func (s *ZFSolver) WeightsInto(rows [][]complex128, dst [][]complex128) ([][]complex128, bool) {
	n := len(rows)
	if n == 0 || len(rows[0]) != n {
		// Zero-forcing needs as many transmit antennas as users.
		return dst, false
	}
	s.a.reshape(n, n)
	s.inv.reshape(n, n)
	a, inv := &s.a, &s.inv
	for u, row := range rows {
		for txi, v := range row {
			a.Set(u, txi, v)
		}
	}
	for i := 0; i < n; i++ {
		inv.Set(i, i, 1)
	}
	if !gaussJordan(a, inv) {
		return dst, false
	}
	// Column u of the inverse is user u's precoding direction.
	if cap(dst) < n {
		dst = make([][]complex128, n)
	}
	dst = dst[:n]
	for u := 0; u < n; u++ {
		if cap(dst[u]) < n {
			dst[u] = make([]complex128, n)
		}
		w := dst[u][:n]
		for txi := 0; txi < n; txi++ {
			w[txi] = inv.At(txi, u)
		}
		if nrm := vecNorm(w); nrm > 0 {
			for i := range w {
				w[i] /= complex(nrm, 0)
			}
		}
		dst[u] = w
	}
	return dst, true
}

// reshape resizes m to rows x cols, reusing its backing storage when
// large enough, and zeroes the active window.
func (m *CMatrix) reshape(rows, cols int) {
	n := rows * cols
	if cap(m.Data) < n {
		m.Data = make([]complex128, n)
	}
	m.Rows, m.Cols, m.Data = rows, cols, m.Data[:n]
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// gaussJordan reduces a to the identity in place while applying the same
// row operations to inv (which must start as the identity), leaving inv as
// a's inverse. It reports false on a singular pivot.
func gaussJordan(a, inv *CMatrix) bool {
	n := a.Rows
	for col := 0; col < n; col++ {
		// Partial pivot: largest magnitude in this column.
		pivot := col
		best := cmplx.Abs(a.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := cmplx.Abs(a.At(r, col)); v > best {
				pivot, best = r, v
			}
		}
		if best < 1e-300 {
			return false
		}
		if pivot != col {
			swapRows(a, pivot, col)
			swapRows(inv, pivot, col)
		}
		// Normalize pivot row.
		p := a.At(col, col)
		for j := 0; j < n; j++ {
			a.Set(col, j, a.At(col, j)/p)
			inv.Set(col, j, inv.At(col, j)/p)
		}
		// Eliminate the column elsewhere.
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := a.At(r, col)
			if f == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				a.Set(r, j, a.At(r, j)-f*a.At(col, j))
				inv.Set(r, j, inv.At(r, j)-f*inv.At(col, j))
			}
		}
	}
	return true
}

func swapRows(m *CMatrix, r1, r2 int) {
	for j := 0; j < m.Cols; j++ {
		m.Data[r1*m.Cols+j], m.Data[r2*m.Cols+j] = m.Data[r2*m.Cols+j], m.Data[r1*m.Cols+j]
	}
}

// vecNorm returns the Euclidean norm of v.
func vecNorm(v []complex128) float64 {
	var s float64
	for _, x := range v {
		s += real(x)*real(x) + imag(x)*imag(x)
	}
	return math.Sqrt(s)
}

// dot returns the unconjugated product sum(a_i * b_i) — the h^T w inner
// product of MU-MIMO precoding.
func dot(a, b []complex128) complex128 {
	var s complex128
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
