package csi

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

	"mobiwlan/internal/stats"
)

// randomMatrix fills a matrix with complex Gaussian entries.
func randomMatrix(sc, tx, rx int, rng *stats.RNG) *Matrix {
	m := NewMatrix(sc, tx, rx)
	for s := 0; s < sc; s++ {
		for t := 0; t < tx; t++ {
			for r := 0; r < rx; r++ {
				m.Set(s, t, r, complex(rng.NormFloat64(), rng.NormFloat64()))
			}
		}
	}
	return m
}

// similarity is Eq. (1) through a fresh Workspace.
func similarity(a, b *Matrix) float64 {
	var w Workspace
	return w.Similarity(a, b)
}

// clone returns a deep copy of m.
func clone(m *Matrix) *Matrix {
	c := NewMatrix(m.Subcarriers, m.NTx, m.NRx)
	copy(c.Data(), m.Data())
	return c
}

func TestNewMatrixPanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMatrix(0, 3, 2)
}

func TestSetAtRoundTrip(t *testing.T) {
	m := NewMatrix(4, 3, 2)
	m.Set(2, 1, 1, 3+4i)
	if got := m.At(2, 1, 1); got != 3+4i {
		t.Fatalf("At = %v", got)
	}
	if got := m.At(0, 0, 0); got != 0 {
		t.Fatalf("unset entry = %v", got)
	}
}

func TestIndexingIsBijective(t *testing.T) {
	m := NewMatrix(5, 3, 2)
	v := complex128(1)
	for s := 0; s < 5; s++ {
		for tx := 0; tx < 3; tx++ {
			for rx := 0; rx < 2; rx++ {
				m.Set(s, tx, rx, v)
				v++
			}
		}
	}
	v = 1
	for s := 0; s < 5; s++ {
		for tx := 0; tx < 3; tx++ {
			for rx := 0; rx < 2; rx++ {
				if m.At(s, tx, rx) != v {
					t.Fatalf("entry (%d,%d,%d) = %v, want %v", s, tx, rx, m.At(s, tx, rx), v)
				}
				v++
			}
		}
	}
}

func TestSimilaritySelfIsOne(t *testing.T) {
	m := randomMatrix(52, 3, 2, stats.NewRNG(2))
	if s := similarity(m, m); math.Abs(s-1) > 1e-12 {
		t.Fatalf("self similarity = %v", s)
	}
}

func TestSimilaritySymmetric(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		a := randomMatrix(16, 2, 2, rng)
		b := randomMatrix(16, 2, 2, rng)
		return math.Abs(similarity(a, b)-similarity(b, a)) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSimilarityRangeProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		a := randomMatrix(16, 2, 2, rng)
		b := randomMatrix(16, 2, 2, rng)
		s := similarity(a, b)
		return s >= -1-1e-9 && s <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSimilarityIndependentNearZero(t *testing.T) {
	// Independent random channels should have low similarity on average.
	rng := stats.NewRNG(3)
	var sum float64
	const n = 200
	for i := 0; i < n; i++ {
		a := randomMatrix(52, 3, 2, rng)
		b := randomMatrix(52, 3, 2, rng)
		sum += similarity(a, b)
	}
	if avg := sum / n; math.Abs(avg) > 0.05 {
		t.Fatalf("mean similarity of independent channels = %v", avg)
	}
}

func TestSimilarityNoisyCopyHigh(t *testing.T) {
	rng := stats.NewRNG(4)
	a := randomMatrix(52, 3, 2, rng)
	b := clone(a)
	// Add 1% amplitude noise.
	for s := 0; s < b.Subcarriers; s++ {
		for tx := 0; tx < b.NTx; tx++ {
			for rx := 0; rx < b.NRx; rx++ {
				v := b.At(s, tx, rx)
				b.Set(s, tx, rx, v*complex(1+0.01*rng.NormFloat64(), 0))
			}
		}
	}
	if s := similarity(a, b); s < 0.99 {
		t.Fatalf("similarity of noisy copy = %v, want > 0.99", s)
	}
}

func TestSimilarityMismatchedShapes(t *testing.T) {
	a := NewMatrix(4, 2, 2)
	b := NewMatrix(8, 2, 2)
	if similarity(a, b) != 0 {
		t.Fatal("mismatched shapes should give 0")
	}
	if similarity(nil, a) != 0 || similarity(a, nil) != 0 {
		t.Fatal("nil matrices should give 0")
	}
}

func TestSimilarityConstantProfile(t *testing.T) {
	a := NewMatrix(4, 1, 1)
	b := NewMatrix(4, 1, 1)
	for i := 0; i < 4; i++ {
		a.Set(i, 0, 0, 1)
		b.Set(i, 0, 0, 1)
	}
	// Zero variance -> degenerate, defined as 0.
	if similarity(a, b) != 0 {
		t.Fatal("constant profiles should return 0 (degenerate)")
	}
}

func TestTemporalCorrelationSelf(t *testing.T) {
	m := randomMatrix(52, 3, 2, stats.NewRNG(5))
	if rho := TemporalCorrelation(m, m); math.Abs(rho-1) > 1e-12 {
		t.Fatalf("self rho = %v", rho)
	}
}

func TestTemporalCorrelationPhaseInvariant(t *testing.T) {
	// A global phase rotation does not decorrelate the channel.
	m := randomMatrix(16, 2, 2, stats.NewRNG(6))
	r := clone(m)
	phase := cmplx.Exp(complex(0, 1.2345))
	for s := 0; s < r.Subcarriers; s++ {
		for tx := 0; tx < r.NTx; tx++ {
			for rx := 0; rx < r.NRx; rx++ {
				r.Set(s, tx, rx, r.At(s, tx, rx)*phase)
			}
		}
	}
	if rho := TemporalCorrelation(m, r); math.Abs(rho-1) > 1e-9 {
		t.Fatalf("rho after global rotation = %v", rho)
	}
}

func TestTemporalCorrelationRange(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		a := randomMatrix(8, 2, 1, rng)
		b := randomMatrix(8, 2, 1, rng)
		rho := TemporalCorrelation(a, b)
		return rho >= 0 && rho <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTemporalCorrelationZeroMatrix(t *testing.T) {
	a := NewMatrix(4, 1, 1)
	b := randomMatrix(4, 1, 1, stats.NewRNG(7))
	if TemporalCorrelation(a, b) != 0 {
		t.Fatal("zero matrix should give rho 0")
	}
}

func TestAvgPower(t *testing.T) {
	m := NewMatrix(2, 1, 1)
	m.Set(0, 0, 0, 3+4i) // |.|^2 = 25
	m.Set(1, 0, 0, 1)    // |.|^2 = 1
	if p := m.AvgPower(); math.Abs(p-13) > 1e-12 {
		t.Fatalf("AvgPower = %v, want 13", p)
	}
}

func TestSubcarrierPower(t *testing.T) {
	m := NewMatrix(2, 2, 1)
	m.Set(0, 0, 0, 2) // 4
	m.Set(0, 1, 0, 0) // 0
	m.Set(1, 0, 0, 1) // 1
	m.Set(1, 1, 0, 1) // 1
	if p := m.SubcarrierPower(0); math.Abs(p-2) > 1e-12 {
		t.Fatalf("SubcarrierPower(0) = %v, want 2", p)
	}
	if p := m.SubcarrierPower(1); math.Abs(p-1) > 1e-12 {
		t.Fatalf("SubcarrierPower(1) = %v, want 1", p)
	}
}

func TestQuantizeHighResolutionPreserves(t *testing.T) {
	m := randomMatrix(16, 2, 2, stats.NewRNG(8))
	q := m.QuantizeInto(nil, 16)
	if rho := TemporalCorrelation(m, q); rho < 0.99999 {
		t.Fatalf("16-bit quantization rho = %v", rho)
	}
}

func TestQuantizeCoarseDegrades(t *testing.T) {
	m := randomMatrix(52, 3, 2, stats.NewRNG(9))
	q2 := m.QuantizeInto(nil, 2)
	q8 := m.QuantizeInto(nil, 8)
	rho2 := TemporalCorrelation(m, q2)
	rho8 := TemporalCorrelation(m, q8)
	if rho8 <= rho2 {
		t.Fatalf("8-bit rho (%v) should exceed 2-bit rho (%v)", rho8, rho2)
	}
	if rho8 < 0.999 {
		t.Fatalf("8-bit quantization too lossy: rho = %v", rho8)
	}
}

func TestQuantizeClampsBits(t *testing.T) {
	m := randomMatrix(4, 1, 1, stats.NewRNG(10))
	// Out-of-range bit widths are clamped, not panics.
	_ = m.QuantizeInto(nil, 0)
	_ = m.QuantizeInto(nil, 99)
}

func TestQuantizeZeroMatrix(t *testing.T) {
	m := NewMatrix(4, 1, 1)
	q := m.QuantizeInto(nil, 8)
	if q.AvgPower() != 0 {
		t.Fatal("quantized zero matrix should stay zero")
	}
}

func TestFeedbackBits(t *testing.T) {
	m := NewMatrix(52, 3, 2)
	// 52*3*2 entries * 2 components * 8 bits + 2*24 header bits.
	want := 52*3*2*2*8 + 48
	if got := m.FeedbackBits(8); got != want {
		t.Fatalf("FeedbackBits = %d, want %d", got, want)
	}
}

func TestColumnInto(t *testing.T) {
	m := NewMatrix(2, 3, 2)
	m.Set(1, 0, 1, 10)
	m.Set(1, 1, 1, 20)
	m.Set(1, 2, 1, 30)
	col := m.ColumnInto(nil, 1, 1)
	if len(col) != 3 || col[0] != 10 || col[1] != 20 || col[2] != 30 {
		t.Fatalf("ColumnInto = %v", col)
	}
	// A buffer with enough capacity is reused, not reallocated.
	again := m.ColumnInto(col, 0, 1)
	if &again[0] != &col[0] || again[0] != 0 {
		t.Fatalf("ColumnInto reuse = %v", again)
	}
}

func TestScale(t *testing.T) {
	m := NewMatrix(1, 1, 1)
	m.Set(0, 0, 0, 2+2i)
	m.Scale(0.5)
	if m.At(0, 0, 0) != 1+1i {
		t.Fatalf("Scale = %v", m.At(0, 0, 0))
	}
}
