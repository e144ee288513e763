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
