package stats

import (
	"fmt"
	"sort"
	"strings"
)

// CDF is an empirical cumulative distribution function built from a sample.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from the sample xs. xs is copied.
func NewCDF(xs []float64) *CDF {
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// At returns P(X <= x).
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	// Index of the first element greater than x.
	i := sort.SearchFloat64s(c.sorted, x)
	for i < len(c.sorted) && c.sorted[i] == x {
		i++
	}
	return float64(i) / float64(len(c.sorted))
}

// Points returns n evenly spaced (value, cumulative-probability) points
// suitable for plotting the CDF curve, interpolated over the sample range.
func (c *CDF) Points(n int) []Point {
	if len(c.sorted) == 0 || n <= 0 {
		return nil
	}
	pts := make([]Point, 0, n)
	lo, hi := c.sorted[0], c.sorted[len(c.sorted)-1]
	if lo == hi {
		return []Point{{X: lo, Y: 1}}
	}
	for i := 0; i < n; i++ {
		x := lo + (hi-lo)*float64(i)/float64(n-1)
		pts = append(pts, Point{X: x, Y: c.At(x)})
	}
	return pts
}

// Point is a single (x, y) sample of a curve.
type Point struct {
	X, Y float64
}

// Series is a named curve, the unit in which experiments report figure data.
type Series struct {
	Name   string
	Points []Point
}

// CDFSeries renders the empirical CDF of xs as a named series with n points.
func CDFSeries(name string, xs []float64, n int) Series {
	return Series{Name: name, Points: NewCDF(xs).Points(n)}
}

// RenderTable formats a set of series that share X sampling as an aligned
// text table: one row per X of the first series, one column per series.
// Series with differing X grids are rendered column-per-series by index.
func RenderTable(title, xLabel string, series []Series) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", title)
	if len(series) == 0 {
		return b.String()
	}
	fmt.Fprintf(&b, "%-14s", xLabel)
	for _, s := range series {
		fmt.Fprintf(&b, " %16s", s.Name)
	}
	b.WriteByte('\n')
	rows := 0
	for _, s := range series {
		if len(s.Points) > rows {
			rows = len(s.Points)
		}
	}
	for i := 0; i < rows; i++ {
		x := 0.0
		if i < len(series[0].Points) {
			x = series[0].Points[i].X
		} else {
			for _, s := range series {
				if i < len(s.Points) {
					x = s.Points[i].X
					break
				}
			}
		}
		fmt.Fprintf(&b, "%-14.4g", x)
		for _, s := range series {
			if i < len(s.Points) {
				fmt.Fprintf(&b, " %16.4g", s.Points[i].Y)
			} else {
				fmt.Fprintf(&b, " %16s", "")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
