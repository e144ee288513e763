package beamforming

import (
	"mobiwlan/internal/channel"
	"mobiwlan/internal/core"
	"mobiwlan/internal/csi"
	"mobiwlan/internal/obs"
	"mobiwlan/internal/phy"
)

// FeedbackScheduler picks the CSI feedback (sounding) period for a client.
type FeedbackScheduler interface {
	// Name identifies the scheduler in experiment output.
	Name() string
	// Period returns the feedback period in seconds for the client's
	// current mobility state.
	Period(s core.State) float64
}

// FixedFeedback sounds at a constant period — the stock driver behaviour
// (20 ms in the paper's comparison).
type FixedFeedback struct {
	T float64
}

// Name implements FeedbackScheduler.
func (f FixedFeedback) Name() string { return "fixed" }

// Period implements FeedbackScheduler.
func (f FixedFeedback) Period(core.State) float64 { return f.T }

// SUAdaptiveTable is the paper's Table 2 beamforming row: the quieter the
// channel, the rarer the sounding. (The scanned paper lost digits in these
// cells; the values follow the stated rule "the higher the intensity of
// mobility, the higher the required frequency of CSI feedback" and the
// Fig. 11(a) sweep range.)
var SUAdaptiveTable = map[core.State]float64{
	core.StateUnknown:       20e-3,
	core.StateStatic:        200e-3,
	core.StateEnvironmental: 50e-3,
	core.StateMicro:         10e-3,
	core.StateMacroAway:     5e-3,
	core.StateMacroToward:   5e-3,
	core.StateMacroOrbit:    5e-3,
}

// MUAdaptiveTable is the MU-MIMO row: macro-mobility clients need even
// faster feedback because precoding errors also leak interference onto
// the other users.
var MUAdaptiveTable = map[core.State]float64{
	core.StateUnknown:       20e-3,
	core.StateStatic:        200e-3,
	core.StateEnvironmental: 50e-3,
	core.StateMicro:         10e-3,
	core.StateMacroAway:     2e-3,
	core.StateMacroToward:   2e-3,
	core.StateMacroOrbit:    2e-3,
}

// Adaptive schedules feedback from the classifier's mobility state.
type Adaptive struct {
	// Table maps states to periods; nil uses SUAdaptiveTable.
	Table map[core.State]float64
}

// Name implements FeedbackScheduler.
func (a Adaptive) Name() string { return "mobility-adaptive" }

// Period implements FeedbackScheduler.
func (a Adaptive) Period(s core.State) float64 {
	table := a.Table
	if table == nil {
		table = SUAdaptiveTable
	}
	if v, ok := table[s]; ok {
		return v
	}
	return 20e-3
}

// Config parameterizes a beamforming run: single-user (RunSU) or
// MU-MIMO (RunMU).
type Config struct {
	// FeedbackBits is the quantization of each CSI component (8 in
	// 802.11 compressed feedback).
	FeedbackBits int
	// Grouping is the 802.11n subcarrier grouping factor Ng of the
	// feedback report (every Ng-th subcarrier is reported).
	Grouping int
	// FrameTime is the spacing of data transmit opportunities
	// (simultaneous frames under MU-MIMO).
	FrameTime float64
	// MPDUBytes sizes the loss model packets.
	MPDUBytes int
	// RateMarginDB backs rate selection off the measured beamformed SNR
	// (the per-user SINR under MU-MIMO).
	RateMarginDB float64
	// Obs, when non-nil, collects sounding telemetry; Trial keys the
	// per-trial tracer (distinct concurrent trials must use distinct
	// keys).
	Obs   *obs.Scope
	Trial int
}

// DefaultConfig returns the paper's beamforming setup, shared by the
// SU-beamforming runs and the §6.2 MU-MIMO emulation.
func DefaultConfig() Config {
	return Config{FeedbackBits: 8, Grouping: 4, FrameTime: 2e-3, MPDUBytes: 1500, RateMarginDB: 1}
}

// link holds what RunSU and RunMU share: the configuration, the MAC
// timing, the rate ladder and the raw measurement buffer every sounding
// reuses.
type link struct {
	cfg    Config
	timing phy.Timing
	ladder []phy.MCS
	mBuf   *csi.Matrix
}

func newLink(cfg Config) *link {
	// Beamforming sends a single precoded stream per client.
	return &link{cfg: cfg, timing: phy.DefaultTiming(), ladder: phy.Usable(1)}
}

// sound runs one sounding exchange at t: the client measures ch and
// feeds back its estimate, quantized into est. It returns the estimate
// and the feedback's airtime.
func (l *link) sound(ch *channel.Model, t float64, est *csi.Matrix) (*csi.Matrix, float64) {
	m := ch.MeasureInto(t, l.mBuf)
	l.mBuf = m.CSI
	est = m.CSI.QuantizeInto(est, l.cfg.FeedbackBits)
	return est, phy.FeedbackAirtime(l.timing, reportBits(est, l.cfg.FeedbackBits, l.cfg.Grouping))
}

// rate picks the fastest rung of the ladder whose required SNR snrDB
// clears by RateMarginDB, or the lowest rung when none does.
func (l *link) rate(snrDB float64) phy.MCS {
	best := l.ladder[0]
	for _, m := range l.ladder {
		if snrDB-l.cfg.RateMarginDB >= phy.RequiredSNRdB(m) {
			best = m
		}
	}
	return best
}

// frameBits is the goodput, in bits, of one data frame sent at rate and
// received at snrDB.
func (l *link) frameBits(rate phy.MCS, snrDB float64) float64 {
	per := phy.PER(rate, snrDB, l.cfg.MPDUBytes)
	return rate.RateMbps(phy.Width40, true) * 1e6 * l.cfg.FrameTime * (1 - per)
}

// SUResult summarizes a run.
type SUResult struct {
	// Mbps is the achieved goodput net of feedback overhead.
	Mbps float64
	// FeedbackFraction is the share of airtime spent sounding.
	FeedbackFraction float64
	// Soundings counts feedback exchanges.
	Soundings int
}

// RunSU simulates transmit beamforming to one client over [0, duration).
// The AP sounds the client every period given by sched and stateAt (the
// client's mobility state over time, from the classifier or ground truth),
// precodes every data frame with the latest quantized feedback, and picks
// the best rate the measured beamformed SNR supports.
func RunSU(ch *channel.Model, sched FeedbackScheduler, stateAt func(t float64) core.State, cfg Config, duration float64) SUResult {
	l := newLink(cfg)
	var res SUResult
	var bits, fbTime float64

	// Telemetry (all sinks nil-safe when cfg.Obs is nil).
	soundings := cfg.Obs.Registry().Counter("beamforming.su.soundings")
	tr := cfg.Obs.Tracer(cfg.Trial)

	// Reused buffers: the quantized feedback estimate and the true
	// channel used to score each precoded frame.
	var est, truthBuf *csi.Matrix
	rate := l.ladder[0]
	lastFB := -1e9
	t := 0.0
	for t < duration {
		state := core.StateUnknown
		if stateAt != nil {
			state = stateAt(t)
		}
		period := sched.Period(state)
		if t-lastFB >= period {
			// Sounding exchange: the client measures and feeds back
			// quantized CSI.
			var fb float64
			est, fb = l.sound(ch, t, est)
			fbTime += fb
			t += fb
			lastFB = t
			res.Soundings++
			soundings.Inc()
			tr.Emit(t, "beamforming", "sound", period, fb, core.StateLabel(state))
			// Rate selection happens when the estimate is fresh — the AP
			// has no channel knowledge between soundings, so the chosen
			// rate is held until the next feedback (which is exactly why
			// stale CSI turns into packet loss rather than a graceful
			// rate downshift).
			truthBuf = ch.ResponseInto(t, truthBuf)
			rate = l.rate(phy.BeamformedSNRdB(truthBuf, est, ch.SNRdB(t)))
			continue
		}
		// Data frame precoded with the (aging) estimate at the held rate.
		truthBuf = ch.ResponseInto(t, truthBuf)
		bits += l.frameBits(rate, phy.BeamformedSNRdB(truthBuf, est, ch.SNRdB(t)))
		t += cfg.FrameTime
	}
	if t > 0 {
		res.Mbps = bits / t / 1e6
		res.FeedbackFraction = fbTime / t
	}
	return res
}

// reportBits sizes a compressed feedback report with subcarrier grouping.
func reportBits(m *csi.Matrix, bits, grouping int) int {
	if grouping < 1 {
		grouping = 1
	}
	return m.FeedbackBits(bits) / grouping
}
