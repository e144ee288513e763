package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMedianFilter(t *testing.T) {
	var f MedianFilter
	if _, ok := f.Flush(); ok {
		t.Fatal("Flush of empty filter should report false")
	}
	for _, v := range []float64{5, 1, 100, 2, 3} {
		f.Add(v)
	}
	if f.Len() != 5 {
		t.Fatalf("Len = %d", f.Len())
	}
	m, ok := f.Flush()
	if !ok || m != 3 {
		t.Fatalf("median = %v, ok=%v; want 3, true", m, ok)
	}
	if f.Len() != 0 {
		t.Fatal("Flush did not reset the bucket")
	}
}

func TestMedianFilterRobustToOutliers(t *testing.T) {
	var f MedianFilter
	for i := 0; i < 49; i++ {
		f.Add(10)
	}
	f.Add(1e9) // one wild outlier
	m, _ := f.Flush()
	if m != 10 {
		t.Fatalf("median with outlier = %v, want 10", m)
	}
}

func TestMovingWindowEviction(t *testing.T) {
	w := NewMovingWindow(3)
	for i := 1; i <= 5; i++ {
		w.Push(float64(i))
	}
	got := w.Values()
	want := []float64{3, 4, 5}
	if len(got) != 3 {
		t.Fatalf("len = %d", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Values = %v, want %v", got, want)
		}
	}
	if !w.Full() {
		t.Fatal("window should be full")
	}
	w.Reset()
	if w.Len() != 0 || w.Full() {
		t.Fatal("Reset did not clear window")
	}
}

func TestMovingWindowPartial(t *testing.T) {
	w := NewMovingWindow(5)
	w.Push(1)
	w.Push(2)
	if w.Full() {
		t.Fatal("partially filled window reported Full")
	}
	if w.Mean() != 1.5 {
		t.Fatalf("Mean = %v", w.Mean())
	}
}

func TestMovingWindowPanicsOnZeroCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMovingWindow(0)
}

func TestMovingWindowOrderProperty(t *testing.T) {
	// The window always holds the most recent min(pushes, cap) values in
	// push order.
	f := func(seed uint64, capRaw, nRaw uint8) bool {
		capacity := int(capRaw%10) + 1
		n := int(nRaw % 50)
		w := NewMovingWindow(capacity)
		r := NewRNG(seed)
		var all []float64
		for i := 0; i < n; i++ {
			v := r.Float64()
			all = append(all, v)
			w.Push(v)
		}
		got := w.Values()
		start := 0
		if len(all) > capacity {
			start = len(all) - capacity
		}
		want := all[start:]
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEWMA(t *testing.T) {
	e := NewEWMA(0.5)
	if e.Initialized() {
		t.Fatal("fresh EWMA reported initialized")
	}
	if got := e.Update(10); got != 10 {
		t.Fatalf("first update = %v, want 10", got)
	}
	if got := e.Update(20); got != 15 {
		t.Fatalf("second update = %v, want 15", got)
	}
	if e.Value() != 15 {
		t.Fatalf("Value = %v", e.Value())
	}
}

func TestEWMAConvergence(t *testing.T) {
	e := NewEWMA(1.0 / 8)
	for i := 0; i < 200; i++ {
		e.Update(42)
	}
	if math.Abs(e.Value()-42) > 1e-6 {
		t.Fatalf("EWMA did not converge: %v", e.Value())
	}
}

func TestEWMABoundedProperty(t *testing.T) {
	// The EWMA of values in [0,1] stays in [0,1].
	f := func(seed uint64, alphaRaw uint8) bool {
		alpha := (float64(alphaRaw%100) + 1) / 101
		e := NewEWMA(alpha)
		r := NewRNG(seed)
		for i := 0; i < 100; i++ {
			v := e.Update(r.Float64())
			if v < 0 || v > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
