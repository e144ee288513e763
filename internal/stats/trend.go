package stats

// Trend classifies the direction of a sequence of values.
type Trend int

const (
	// TrendNone means the sequence is not monotonic in either direction.
	TrendNone Trend = iota
	// TrendIncreasing means every step is non-decreasing with at least one
	// strict increase beyond the tolerance.
	TrendIncreasing
	// TrendDecreasing is the mirror image of TrendIncreasing.
	TrendDecreasing
)

// String implements fmt.Stringer.
func (t Trend) String() string {
	switch t {
	case TrendIncreasing:
		return "increasing"
	case TrendDecreasing:
		return "decreasing"
	default:
		return "none"
	}
}

// MonotoneTrend reports whether xs is monotonically increasing or decreasing.
// tolerance allows individual steps to move against the trend by at most
// that much (absorbing residual measurement noise); the total travel from
// first to last must still exceed tolerance for a trend to be declared.
//
// This is the paper's macro-mobility test: "only if all the ToF values in
// the moving window suggest an increasing or decreasing trend, we declare
// that the client is under macro-mobility".
func MonotoneTrend(xs []float64, tolerance float64) Trend {
	if len(xs) < 2 {
		return TrendNone
	}
	inc, dec := true, true
	for i := 1; i < len(xs); i++ {
		d := xs[i] - xs[i-1]
		if d < -tolerance {
			inc = false
		}
		if d > tolerance {
			dec = false
		}
	}
	total := xs[len(xs)-1] - xs[0]
	switch {
	case inc && total > tolerance:
		return TrendIncreasing
	case dec && total < -tolerance:
		return TrendDecreasing
	default:
		return TrendNone
	}
}
