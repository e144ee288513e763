// Package core implements the paper's primary contribution: AP-side
// client-mobility classification from PHY-layer information only.
//
// The classifier (paper Fig. 5) consumes two measurement streams the AP
// already has for free:
//
//   - CSI snapshots from the client's transmissions, sampled periodically.
//     The moving average of the similarity of consecutive snapshots
//     (csi.Similarity, paper Eq. 1) separates static (> ThrSta),
//     environmental (ThrEnv..ThrSta], and device mobility (<= ThrEnv).
//   - ToF readings from the data->ACK exchange, collected only while the
//     client is under device mobility. Per-second medians (tof.Medians)
//     feed a windowed monotone-trend test (tof.TrendDetector): an
//     increasing trend means macro-mobility moving away from the AP,
//     decreasing means moving towards, no trend means micro-mobility.
//
// The output is one of five states: static, environmental, micro, macro
// moving-away, macro moving-towards — consumed by the roaming, rate
// control, aggregation, and beamforming protocols in their respective
// packages.
package core

import (
	"fmt"

	"mobiwlan/internal/csi"
	"mobiwlan/internal/mobility"
	"mobiwlan/internal/obs"
	"mobiwlan/internal/stats"
	"mobiwlan/internal/tof"
)

// Config holds the classifier's tuning parameters. The defaults are the
// paper's published values.
type Config struct {
	// ThrSta is the similarity threshold above which the client is
	// declared stationary with no environmental changes (paper: 0.98).
	ThrSta float64
	// ThrEnv is the similarity threshold below which the client is
	// declared under device mobility (paper: 0.7).
	ThrEnv float64
	// CSISamplePeriod is the interval between CSI snapshots, in seconds
	// (paper: 50 ms).
	CSISamplePeriod float64
	// SimWindow is the number of consecutive similarity values averaged
	// before thresholding.
	SimWindow int
	// MedianInterval is the ToF median aggregation period in seconds
	// (paper: 1 s).
	MedianInterval float64
	// ToFWindow is the number of per-second ToF medians in the trend
	// detection window (paper: 4, i.e. a 4 s window).
	ToFWindow int
	// ToFTolerance allows per-step reversals of that many clock cycles in
	// the trend test. The paper's rule is strict monotonicity; one cycle
	// of tolerance absorbs the integer quantization of per-second medians
	// without admitting real direction changes (ToFMinTravel still gates
	// the total travel).
	ToFTolerance float64
	// ToFMinTravel is the minimum first-to-last ToF change, in clock
	// cycles, for a macro trend (guards against quantization plateaus).
	ToFMinTravel float64
	// ToFStopHysteresis is how many consecutive stationary CSI decisions
	// are required before ToF collection stops. A walking client's CSI
	// similarity occasionally spikes for a few samples; tearing the ToF
	// window down on every spike would cost seconds of re-detection.
	ToFStopHysteresis int
}

// DefaultConfig returns the paper's parameter set.
func DefaultConfig() Config {
	return Config{
		ThrSta:            0.98,
		ThrEnv:            0.70,
		CSISamplePeriod:   0.050,
		SimWindow:         8,
		MedianInterval:    1.0,
		ToFWindow:         4,
		ToFTolerance:      1.0,
		ToFMinTravel:      1.5,
		ToFStopHysteresis: 10,
	}
}

// State is the classifier's output: the paper's five states, the
// ExtendedClassifier's orbit state, and StateUnknown.
type State int

const (
	// StateUnknown is reported before enough CSI has been observed.
	StateUnknown State = iota
	// StateStatic: stationary client, quiet environment.
	StateStatic
	// StateEnvironmental: stationary client, moving environment.
	StateEnvironmental
	// StateMicro: device mobility confined to a small area.
	StateMicro
	// StateMacroAway: device mobility with increasing AP distance.
	StateMacroAway
	// StateMacroToward: device mobility with decreasing AP distance.
	StateMacroToward
	// StateMacroOrbit is reported only by the ExtendedClassifier, for
	// macro-mobility tangential to the AP: the client covers real
	// distance but its AP distance stays constant (the paper's §9 circle
	// limitation, which the base CSI+ToF classifier labels micro).
	StateMacroOrbit
)

// stateRow names a State and maps it to the ground-truth vocabulary.
type stateRow struct {
	label   string
	mode    mobility.Mode
	heading mobility.Heading
}

// states is the one table of classifier states: String, StateLabel, Mode,
// Heading and numStates all read it.
var states = [...]stateRow{
	StateUnknown:       {"unknown", mobility.Static, mobility.HeadingNone},
	StateStatic:        {"static", mobility.Static, mobility.HeadingNone},
	StateEnvironmental: {"environmental", mobility.Environmental, mobility.HeadingNone},
	StateMicro:         {"micro", mobility.Micro, mobility.HeadingNone},
	StateMacroAway:     {"macro-away", mobility.Macro, mobility.HeadingAway},
	StateMacroToward:   {"macro-toward", mobility.Macro, mobility.HeadingToward},
	StateMacroOrbit:    {"macro-orbit", mobility.Macro, mobility.HeadingNone},
}

// numStates bounds the per-state counter arrays.
const numStates = len(states)

// row returns s's table row; values outside the table read as
// StateUnknown's.
func (s State) row() stateRow {
	if s < 0 || int(s) >= numStates {
		return states[StateUnknown]
	}
	return states[s]
}

// String implements fmt.Stringer. Values outside the table print as
// unknown(N).
func (s State) String() string {
	if s < 0 || int(s) >= numStates {
		return fmt.Sprintf("unknown(%d)", int(s))
	}
	return states[s].label
}

// StateLabel returns an interned label for a state. Unlike
// State.String it never allocates (values outside the table read
// "unknown"), so it is safe on the instrumented hot path.
func StateLabel(s State) string { return s.row().label }

// Mode maps the state to the coarse four-way ground-truth vocabulary.
func (s State) Mode() mobility.Mode { return s.row().mode }

// Heading maps the state to the relative-heading vocabulary.
func (s State) Heading() mobility.Heading { return s.row().heading }

// StateFor converts a ground-truth (mode, heading) pair to the state the
// classifier should report for it.
func StateFor(m mobility.Mode, h mobility.Heading) State {
	switch m {
	case mobility.Static:
		return StateStatic
	case mobility.Environmental:
		return StateEnvironmental
	case mobility.Micro:
		return StateMicro
	case mobility.Macro:
		switch h {
		case mobility.HeadingAway:
			return StateMacroAway
		case mobility.HeadingToward:
			return StateMacroToward
		default:
			return StateMicro // circling: indistinguishable from micro
		}
	}
	return StateUnknown
}

// Classifier is the streaming mobility classifier. Feed it CSI snapshots
// with ObserveCSI and (whenever ToFActive reports true) raw ToF readings
// with ObserveToF, then read State.
type Classifier struct {
	cfg Config

	// prev is the last snapshot's amplitude profile and cur the scratch
	// the next one's is taken into: each snapshot's profile is computed
	// once and serves two comparisons, and callers are free to reuse
	// their measurement buffer between observations. hasPrev is false
	// until the first snapshot.
	prev, cur csi.Profile
	hasPrev   bool
	simWin    *stats.MovingWindow
	coarse    State // StateStatic / StateEnvironmental / StateMicro placeholder for device mobility
	hasCSI    bool

	tofActive        bool
	medians          tof.Medians
	stationaryStreak int
	trend            *tof.TrendDetector

	state State

	// Optional telemetry sinks (see Instrument); nil means disabled
	// and costs one branch per site.
	met *Metrics
	tr  *obs.Tracer
}

// New returns a classifier with the given configuration.
func New(cfg Config) *Classifier {
	if cfg.SimWindow < 1 {
		cfg.SimWindow = 1
	}
	if cfg.ToFWindow < 2 {
		cfg.ToFWindow = 2
	}
	return &Classifier{
		cfg:    cfg,
		simWin: stats.NewMovingWindow(cfg.SimWindow),
		state:  StateUnknown,
		coarse: StateUnknown,
		trend:  tof.NewTrendDetector(cfg.ToFWindow, cfg.ToFTolerance, cfg.ToFMinTravel),
	}
}

// Config returns the classifier's configuration.
func (c *Classifier) Config() Config { return c.cfg }

// ObserveCSI feeds one CSI snapshot taken at time t. Snapshots should
// arrive roughly every Config.CSISamplePeriod; the classifier itself is
// agnostic to the exact spacing. The classifier keeps m's amplitude
// profile, not m, so the caller may reuse m for the next measurement;
// after the buffers warm up the call is allocation-free.
//
//mobilint:hotpath
func (c *Classifier) ObserveCSI(t float64, m *csi.Matrix) {
	c.cur.Set(m)
	if c.hasPrev {
		c.simWin.Push(c.prev.Similarity(&c.cur))
		c.hasCSI = true
	}
	c.prev, c.cur = c.cur, c.prev
	c.hasPrev = true
	if !c.hasCSI {
		return
	}
	s := c.simWin.Mean()
	c.met.observeSimilarity(s)
	switch {
	case s > c.cfg.ThrSta:
		c.coarse = StateStatic
	case s > c.cfg.ThrEnv:
		c.coarse = StateEnvironmental
	default:
		c.coarse = StateMicro // device mobility; refined by ToF
	}
	c.refreshState(t)
}

// refreshState recomputes the published state and manages the ToF
// measurement lifecycle (paper Fig. 5).
func (c *Classifier) refreshState(t float64) {
	prev := c.state
	switch c.coarse {
	case StateStatic, StateEnvironmental:
		c.stationaryStreak++
		if c.tofActive && c.stationaryStreak >= c.cfg.ToFStopHysteresis {
			c.stopToF(t)
		}
		c.state = c.coarse
	case StateMicro:
		c.stationaryStreak = 0
		if !c.tofActive {
			c.startToF(t)
		}
		switch c.trend.Trend() {
		case stats.TrendIncreasing:
			c.state = StateMacroAway
		case stats.TrendDecreasing:
			c.state = StateMacroToward
		default:
			c.state = StateMicro
		}
	default:
		c.state = StateUnknown
	}
	if c.state != prev {
		c.noteTransition(t, prev, c.state)
	}
}

func (c *Classifier) startToF(t float64) {
	c.tofActive = true
	c.medians.Reset()
	c.trend.Reset()
	c.met.observeToF(true)
	c.tr.Emit(t, "core", "tof-start", 0, 0, "")
}

func (c *Classifier) stopToF(t float64) {
	c.tofActive = false
	c.medians.Reset()
	c.trend.Reset()
	c.met.observeToF(false)
	c.tr.Emit(t, "core", "tof-stop", 0, 0, "")
}

// ToFActive reports whether the AP should currently be collecting ToF
// readings for this client. CSI alone settles static and environmental
// states; ToF is only needed to refine device mobility, which is what makes
// the scheme cheap.
func (c *Classifier) ToFActive() bool { return c.tofActive }

// ObserveToF feeds one raw ToF reading (in clock cycles) taken at time t.
// Readings observed while ToF collection is inactive are ignored.
//
//mobilint:hotpath
func (c *Classifier) ObserveToF(t float64, rawCycles float64) {
	if !c.tofActive {
		return
	}
	if med, ok := c.medians.Add(t, rawCycles, c.cfg.MedianInterval); ok {
		c.trend.Push(med)
		c.refreshState(t)
	}
}

// State returns the current classification.
func (c *Classifier) State() State { return c.state }

// Similarity returns the current moving-average CSI similarity, or 0
// before any CSI pair has been observed.
func (c *Classifier) Similarity() float64 {
	if !c.hasCSI {
		return 0
	}
	return c.simWin.Mean()
}
