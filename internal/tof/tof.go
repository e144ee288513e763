// Package tof models Time-of-Flight measurement as implemented on
// Atheros-class chipsets (paper §2.4, Fig. 3): the AP timestamps the
// Time-of-Departure of a data frame and the Time-of-Arrival of the client's
// ACK at the PHY clock resolution. After subtracting the fixed SIFS wait,
// the residual is the round-trip propagation time — proportional to the
// AP-client distance but heavily quantized and jittered, so raw readings
// are useless on their own.
//
// The package holds the whole ToF pipeline: Meter draws raw readings every
// SampleInterval, Medians reduces them to per-second medians, and
// TrendDetector applies the paper's windowed monotone-trend rule. The
// classifier (internal/core) and the controller's per-AP probes both use
// it, so the rule exists once.
package tof

import (
	"math"

	"mobiwlan/internal/stats"
)

// SpeedOfLight in meters per second.
const SpeedOfLight = 299792458.0

// SampleInterval is the raw ToF sampling period in seconds: one reading
// per data-ACK exchange used, every 20 ms.
const SampleInterval = 0.020

// Config holds the measurement-model parameters.
type Config struct {
	// ClockHz is the PHY timestamp clock (88 MHz on a 40 MHz channel:
	// 2x-oversampled baseband clock).
	ClockHz float64
	// JitterCycles is the per-measurement Gaussian jitter, in clock
	// cycles, covering ADC sampling offset, multipath smearing of the
	// arrival edge, and interrupt timestamp noise.
	JitterCycles float64
	// OffsetCycles is the fixed pipeline offset (SIFS, Tx/Rx turnaround);
	// constant per chipset and irrelevant to trend detection.
	OffsetCycles float64
}

// DefaultConfig matches the paper's setup: a couple of cycles of jitter
// on the 88 MHz timestamp clock.
func DefaultConfig() Config {
	return Config{
		ClockHz:      88e6,
		JitterCycles: 2.0,
		OffsetCycles: 1320, // ~15 us SIFS + turnaround, constant
	}
}

// CyclesPerMeter returns the ToF change, in clock cycles, caused by one
// meter of AP-client distance change (round trip).
func (c Config) CyclesPerMeter() float64 {
	return 2 * c.ClockHz / SpeedOfLight
}

// Meter converts true distances into the noisy, quantized ToF readings an
// AP would observe.
type Meter struct {
	cfg Config
	rng *stats.RNG
}

// NewMeter returns a ToF meter with the given configuration and noise seed.
func NewMeter(cfg Config, rng *stats.RNG) *Meter {
	return &Meter{cfg: cfg, rng: rng}
}

// Config returns the meter's configuration.
func (m *Meter) Config() Config { return m.cfg }

// Raw returns a single raw ToF reading, in integer clock cycles, for a
// client at the given distance in meters.
func (m *Meter) Raw(distance float64) float64 {
	cycles := m.cfg.OffsetCycles +
		distance*m.cfg.CyclesPerMeter() +
		m.rng.Gaussian(0, m.cfg.JitterCycles)
	return math.Round(cycles)
}

// Medians is the median stage of the ToF pipeline: it buffers raw
// readings and emits their median each time the reading clock has
// advanced by the aggregation interval (1 s in the paper). The clock is
// keyed on reading time and starts at the first reading after a Reset.
// The zero value is ready to use.
type Medians struct {
	filter  stats.MedianFilter
	last    float64
	started bool
}

// Add buffers one raw reading taken at time t. It returns (median, true)
// when at least interval seconds have passed since the previous median
// (or since the first reading), and (0, false) otherwise.
func (m *Medians) Add(t, raw, interval float64) (float64, bool) {
	if !m.started {
		m.started = true
		m.last = t
	}
	m.filter.Add(raw)
	if t-m.last >= interval {
		m.last = t
		return m.filter.Flush()
	}
	return 0, false
}

// Reset drops the buffered readings and restarts the clock at the next
// Add, used when the classifier stops and restarts ToF collection.
func (m *Medians) Reset() {
	m.filter.Flush()
	m.started = false
}

// TrendDetector applies the paper's macro-mobility rule to the stream of
// per-second ToF medians: only if all medians in a moving window suggest a
// monotonically increasing (moving away) or decreasing (moving towards)
// trend is the client declared under macro-mobility.
type TrendDetector struct {
	window    *stats.MovingWindow
	tolerance float64
	minTravel float64
}

// NewTrendDetector returns a detector over windowSize consecutive medians.
// tolerance allows individual steps to move against the trend by that many
// cycles (0 reproduces the paper's strict rule). minTravel is the minimum
// first-to-last ToF change, in cycles, required to declare a trend: because
// medians are integer-quantized, plateaued windows would otherwise pass the
// monotonicity test on measurement noise alone, while a real walker covers
// several cycles of ToF per window (0.587 cycles per meter at 88 MHz).
func NewTrendDetector(windowSize int, tolerance, minTravel float64) *TrendDetector {
	return &TrendDetector{
		window:    stats.NewMovingWindow(windowSize),
		tolerance: tolerance,
		minTravel: minTravel,
	}
}

// Push adds one per-second median to the window.
func (d *TrendDetector) Push(median float64) { d.window.Push(median) }

// Ready reports whether a full window of medians has accumulated.
func (d *TrendDetector) Ready() bool { return d.window.Full() }

// Trend returns the current windowed trend: TrendIncreasing means the
// client is moving away from the AP, TrendDecreasing means moving towards,
// TrendNone means no consistent distance trend (micro-mobility). Before a
// full window has accumulated it returns TrendNone.
func (d *TrendDetector) Trend() stats.Trend {
	if !d.window.Full() {
		return stats.TrendNone
	}
	vals := d.window.Values()
	tr := stats.MonotoneTrend(vals, d.tolerance)
	if tr == stats.TrendNone {
		return tr
	}
	if math.Abs(vals[len(vals)-1]-vals[0]) < d.minTravel {
		return stats.TrendNone
	}
	return tr
}

// Reset clears the detector's window.
func (d *TrendDetector) Reset() { d.window.Reset() }
