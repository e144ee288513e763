package stats

import "sort"

// MedianFilter aggregates a stream of noisy samples and emits their median
// once per aggregation bucket. The paper's classifier feeds raw ToF readings
// (sampled every ~20 ms) through exactly this filter to produce one robust
// value per second.
type MedianFilter struct {
	buf     []float64
	scratch []float64
}

// Add appends a raw sample to the current bucket.
func (f *MedianFilter) Add(x float64) { f.buf = append(f.buf, x) }

// Len reports how many raw samples are buffered in the current bucket.
func (f *MedianFilter) Len() int { return len(f.buf) }

// Flush computes the median of the buffered samples, resets the bucket, and
// returns (median, true). If the bucket is empty it returns (0, false).
// The sort runs on a reused scratch buffer, so a filter flushed at a steady
// cadence (the classifier's per-second ToF aggregation) stops allocating
// once its buffers reach the bucket size.
func (f *MedianFilter) Flush() (float64, bool) {
	if len(f.buf) == 0 {
		return 0, false
	}
	f.scratch = append(f.scratch[:0], f.buf...)
	sort.Float64s(f.scratch)
	m := percentileSorted(f.scratch, 50)
	f.buf = f.buf[:0]
	return m, true
}

// MovingWindow holds the most recent capacity values of a stream.
type MovingWindow struct {
	vals []float64
	cap  int
}

// NewMovingWindow returns a window holding at most capacity values.
// It panics if capacity <= 0.
func NewMovingWindow(capacity int) *MovingWindow {
	if capacity <= 0 {
		panic("stats: NewMovingWindow with non-positive capacity")
	}
	return &MovingWindow{cap: capacity}
}

// Push appends x, evicting the oldest value when the window is full.
func (w *MovingWindow) Push(x float64) {
	if len(w.vals) == w.cap {
		copy(w.vals, w.vals[1:])
		w.vals[len(w.vals)-1] = x
		return
	}
	w.vals = append(w.vals, x)
}

// Full reports whether the window holds capacity values.
func (w *MovingWindow) Full() bool { return len(w.vals) == w.cap }

// Len reports how many values the window currently holds.
func (w *MovingWindow) Len() int { return len(w.vals) }

// Values returns the window contents, oldest first. The returned slice
// aliases internal state and must not be modified.
func (w *MovingWindow) Values() []float64 { return w.vals }

// Mean returns the mean of the window contents.
func (w *MovingWindow) Mean() float64 { return Mean(w.vals) }

// Reset discards all buffered values.
func (w *MovingWindow) Reset() { w.vals = w.vals[:0] }

// EWMA is an exponentially weighted moving average with smoothing factor
// alpha: avg <- alpha*x + (1-alpha)*avg. Alpha may be changed between
// updates, which is how the mobility-aware rate control re-weights PER
// history per mobility mode.
type EWMA struct {
	Alpha float64
	val   float64
	init  bool
}

// NewEWMA returns an EWMA with the given smoothing factor.
func NewEWMA(alpha float64) *EWMA { return &EWMA{Alpha: alpha} }

// Update folds x into the average and returns the new value. The first
// update initializes the average to x.
func (e *EWMA) Update(x float64) float64 {
	if !e.init {
		e.val = x
		e.init = true
		return e.val
	}
	e.val = e.Alpha*x + (1-e.Alpha)*e.val
	return e.val
}

// Value returns the current average (0 before the first update).
func (e *EWMA) Value() float64 { return e.val }

// Initialized reports whether at least one sample has been folded in.
func (e *EWMA) Initialized() bool { return e.init }

// Set overrides the current average with v, marking the EWMA initialized.
// Rate control uses this to enforce PER monotonicity across bit-rates.
func (e *EWMA) Set(v float64) { e.val, e.init = v, true }
