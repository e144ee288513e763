package stats

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestCDFAt(t *testing.T) {
	c := NewCDF([]float64{1, 2, 2, 3})
	cases := []struct{ x, want float64 }{
		{0, 0}, {1, 0.25}, {1.5, 0.25}, {2, 0.75}, {3, 1}, {10, 1},
	}
	for _, cse := range cases {
		if got := c.At(cse.x); got != cse.want {
			t.Errorf("At(%v) = %v, want %v", cse.x, got, cse.want)
		}
	}
}

func TestCDFEmpty(t *testing.T) {
	c := NewCDF(nil)
	if c.At(1) != 0 || c.Points(5) != nil {
		t.Error("empty CDF should return zero values")
	}
}

func TestCDFMonotonicProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%100) + 1
		r := NewRNG(seed)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.Gaussian(0, 10)
		}
		c := NewCDF(xs)
		prev := -1.0
		for _, p := range c.Points(20) {
			if p.Y < prev {
				return false
			}
			if p.Y < 0 || p.Y > 1 {
				return false
			}
			prev = p.Y
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCDFPointsConstant(t *testing.T) {
	c := NewCDF([]float64{5, 5, 5})
	pts := c.Points(10)
	if len(pts) != 1 || pts[0].X != 5 || pts[0].Y != 1 {
		t.Errorf("constant-sample Points = %v", pts)
	}
}

func TestCDFSeries(t *testing.T) {
	s := CDFSeries("test", []float64{1, 2, 3}, 5)
	if s.Name != "test" || len(s.Points) != 5 {
		t.Errorf("CDFSeries = %+v", s)
	}
}

func TestRenderTable(t *testing.T) {
	s := []Series{
		{Name: "a", Points: []Point{{1, 0.5}, {2, 1.0}}},
		{Name: "b", Points: []Point{{1, 0.25}, {2, 0.75}}},
	}
	out := RenderTable("demo", "x", s)
	if !strings.Contains(out, "# demo") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "a") || !strings.Contains(out, "b") {
		t.Error("missing series names")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // title + header + 2 rows
		t.Errorf("expected 4 lines, got %d:\n%s", len(lines), out)
	}
}

func TestRenderTableRagged(t *testing.T) {
	s := []Series{
		{Name: "long", Points: []Point{{1, 1}, {2, 2}, {3, 3}}},
		{Name: "short", Points: []Point{{1, 1}}},
	}
	out := RenderTable("ragged", "x", s)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 {
		t.Errorf("expected 5 lines for ragged table, got %d", len(lines))
	}
}

func TestRenderTableEmpty(t *testing.T) {
	out := RenderTable("empty", "x", nil)
	if !strings.Contains(out, "# empty") {
		t.Error("empty table should still contain a title")
	}
}
