package stats

import (
	"math"
	"testing"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("generators with equal seeds diverged at step %d", i)
		}
	}
}

func TestRNGDifferentSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d identical values out of 100", same)
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	r := NewRNG(7)
	c1 := r.Split(1)
	c2 := r.Split(2)
	c1again := r.Split(1)
	if c1.Uint64() != c1again.Uint64() {
		t.Fatal("Split is not deterministic for equal labels")
	}
	if c1.state == c2.state {
		t.Fatal("Split produced identical children for different labels")
	}
}

func TestRNGSplitDoesNotAdvanceParent(t *testing.T) {
	r := NewRNG(99)
	before := r.state
	_ = r.Split(5)
	if r.state != before {
		t.Fatal("Split advanced the parent state")
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := NewRNG(11)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRNG(13)
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("gaussian mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("gaussian variance = %v, want ~1", variance)
	}
}

// zeroAt returns a seed whose k-th Uint64 (k >= 1) is 0, so its k-th
// Float64 is the zero uniform Box-Muller must redraw. Uint64 adds the
// SplitMix64 increment to the state and then applies the finalizer, a
// bijection that maps 0 to 0: the k-th output is 0 exactly when seed plus
// k increments wraps to 0.
func zeroAt(k uint64) uint64 {
	return -(k * 0x9e3779b97f4a7c15)
}

// TestNormFloat64SkipsZeroUniform pins the u > 0 redraw: a zero first
// uniform is discarded, and the variates come from the next two draws.
func TestNormFloat64SkipsZeroUniform(t *testing.T) {
	ref := NewRNG(zeroAt(1))
	if z := ref.Float64(); z != 0 {
		t.Fatalf("seed zeroAt(1) drew %v first, want 0", z)
	}
	u, v := ref.Float64(), ref.Float64()
	mag := math.Sqrt(-2 * math.Log(u))
	s, c := math.Sincos(2 * math.Pi * v)

	r := NewRNG(zeroAt(1))
	if got := r.NormFloat64(); got != mag*c {
		t.Fatalf("first variate %v, want %v from the draws after the zero", got, mag*c)
	}
	if got := r.NormFloat64(); got != mag*s {
		t.Fatalf("spare variate %v, want %v", got, mag*s)
	}
	if r.state != ref.state {
		t.Fatalf("state %x after the pair, want %x: the zero draw was not skipped exactly once", r.state, ref.state)
	}
}

// TestNormFillMatchesNormFloat64 pins NormFill to repeated NormFloat64
// calls bit for bit, and the generator state after each fill: random
// lengths 0-700 (odd ones end on a spare), entry with and without a
// spare, scalar calls interleaved, and seeds that put a zero uniform at
// every position of the first pass's first pairs and deep in the stream.
func TestNormFillMatchesNormFloat64(t *testing.T) {
	pick := NewRNG(5)
	seeds := []uint64{1, 42, 0xdeadbeef, zeroAt(500), zeroAt(501), zeroAt(1001)}
	for k := uint64(1); k <= 9; k++ {
		seeds = append(seeds, zeroAt(k))
	}
	for _, seed := range seeds {
		fill, ref := NewRNG(seed), NewRNG(seed)
		for step := 0; step < 30; step++ {
			if step > 0 && pick.Intn(3) == 0 {
				for i := pick.Intn(3); i >= 0; i-- {
					if got, want := fill.NormFloat64(), ref.NormFloat64(); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("seed %x step %d: interleaved NormFloat64 %v, want %v", seed, step, got, want)
					}
				}
				continue
			}
			n := pick.Intn(701)
			if step == 0 {
				n = 2 + pick.Intn(699) // the first fill meets the seeded zero
			}
			got := make([]float64, n)
			fill.NormFill(got)
			for i, g := range got {
				if want := ref.NormFloat64(); math.Float64bits(g) != math.Float64bits(want) {
					t.Fatalf("seed %x step %d: NormFill(%d)[%d] = %v, want %v", seed, step, n, i, g, want)
				}
			}
			if *fill != *ref {
				t.Fatalf("seed %x step %d: NormFill(%d) left %+v, NormFloat64 calls %+v", seed, step, n, *fill, *ref)
			}
		}
	}
}

func TestGaussianScaling(t *testing.T) {
	r := NewRNG(17)
	const n = 100000
	var xs []float64
	for i := 0; i < n; i++ {
		xs = append(xs, r.Gaussian(10, 3))
	}
	if m := Mean(xs); math.Abs(m-10) > 0.1 {
		t.Fatalf("mean = %v, want ~10", m)
	}
	if s := StdDev(xs); math.Abs(s-3) > 0.1 {
		t.Fatalf("stddev = %v, want ~3", s)
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(23)
	seen := map[int]bool{}
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) only produced %d distinct values", len(seen))
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestBoolProbability(t *testing.T) {
	r := NewRNG(29)
	const n = 100000
	count := 0
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			count++
		}
	}
	frac := float64(count) / n
	if math.Abs(frac-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) true fraction = %v", frac)
	}
	if r.Bool(0) {
		t.Fatal("Bool(0) returned true")
	}
	if !r.Bool(1) {
		t.Fatal("Bool(1) returned false")
	}
}

func TestRangeBounds(t *testing.T) {
	r := NewRNG(31)
	for i := 0; i < 1000; i++ {
		v := r.Range(-3, 5)
		if v < -3 || v >= 5 {
			t.Fatalf("Range(-3,5) = %v", v)
		}
	}
}

// csiNoiseDraws is the Gaussian count of one CSI measurement at the
// default shape: 52 subcarriers x 6 antenna pairs x (re, im).
const csiNoiseDraws = 624

var normSink float64

func BenchmarkNormFill(b *testing.B) {
	r := NewRNG(1)
	dst := make([]float64, csiNoiseDraws)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.NormFill(dst)
	}
	normSink = dst[0]
}

func BenchmarkNormFloat64Loop(b *testing.B) {
	r := NewRNG(1)
	dst := make([]float64, csiNoiseDraws)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range dst {
			dst[j] = r.NormFloat64()
		}
	}
	normSink = dst[0]
}
