package stats

import (
	"testing"
	"testing/quick"
)

func TestMonotoneTrendBasic(t *testing.T) {
	cases := []struct {
		xs   []float64
		tol  float64
		want Trend
	}{
		{[]float64{1, 2, 3, 4}, 0, TrendIncreasing},
		{[]float64{4, 3, 2, 1}, 0, TrendDecreasing},
		{[]float64{1, 3, 2, 4}, 0, TrendNone},
		{[]float64{1, 1, 1}, 0, TrendNone},
		{[]float64{1}, 0, TrendNone},
		{nil, 0, TrendNone},
		// Tolerance absorbs a small dip against the trend.
		{[]float64{1, 2, 1.95, 3}, 0.1, TrendIncreasing},
		// But the total travel must exceed the tolerance.
		{[]float64{1, 1.01, 1.02}, 0.1, TrendNone},
	}
	for _, c := range cases {
		if got := MonotoneTrend(c.xs, c.tol); got != c.want {
			t.Errorf("MonotoneTrend(%v, %v) = %v, want %v", c.xs, c.tol, got, c.want)
		}
	}
}

func TestTrendString(t *testing.T) {
	if TrendIncreasing.String() != "increasing" ||
		TrendDecreasing.String() != "decreasing" ||
		TrendNone.String() != "none" {
		t.Error("Trend.String misbehaves")
	}
}

func TestMonotoneTrendReversalProperty(t *testing.T) {
	// Negating a sequence flips increasing<->decreasing.
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%20) + 2
		r := NewRNG(seed)
		xs := make([]float64, n)
		neg := make([]float64, n)
		acc := 0.0
		for i := range xs {
			acc += r.Float64() - 0.3 // biased upward drift
			xs[i] = acc
			neg[i] = -acc
		}
		a := MonotoneTrend(xs, 0)
		b := MonotoneTrend(neg, 0)
		switch a {
		case TrendIncreasing:
			return b == TrendDecreasing
		case TrendDecreasing:
			return b == TrendIncreasing
		default:
			return b == TrendNone
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
