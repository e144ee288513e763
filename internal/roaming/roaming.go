// Package roaming implements the paper's §3 client-roaming study: a
// multi-AP floor plan, the default 802.11 client association behaviour,
// the sensor-hint client-side roaming of paper ref. [1], and the paper's
// controller-based mobility-aware roaming protocol that forces a handoff
// only when the client is walking away from its AP and a better candidate
// (stronger signal, client heading toward it) exists.
package roaming

import (
	"mobiwlan/internal/channel"
	"mobiwlan/internal/core"
	"mobiwlan/internal/csi"
	"mobiwlan/internal/geom"
	"mobiwlan/internal/mobility"
	"mobiwlan/internal/obs"
	"mobiwlan/internal/phy"
	"mobiwlan/internal/stats"
	"mobiwlan/internal/tof"
)

// Plan is the WLAN deployment: AP positions on the shared floor.
type Plan struct {
	// APs are the access point positions.
	APs []geom.Point
	// Channel is the radio configuration shared by all APs.
	Channel channel.Config
}

// DefaultPlan mirrors the paper's Fig. 13(a) testbed: six APs covering two
// office wings of a 50x30 m floor. Transmit power is set so that cell
// edges actually degrade (enterprise APs run well below their maximum to
// increase spatial reuse); with full power every AP would cover the whole
// floor at the top MCS and roaming would be moot.
func DefaultPlan() Plan {
	cfg := channel.DefaultConfig()
	cfg.TxPowerDBm = 5
	return Plan{
		APs: []geom.Point{
			geom.Pt(8, 7), geom.Pt(25, 7), geom.Pt(42, 7),
			geom.Pt(8, 23), geom.Pt(25, 23), geom.Pt(42, 23),
		},
		Channel: cfg,
	}
}

// GridPlan lays out n APs on a near-square grid with the default plan's
// cell pitch (17 m x 16 m — six APs reproduce the Fig. 13 floor's
// density), for fleet runs larger than one floor. The radio configuration
// matches DefaultPlan.
func GridPlan(n int) Plan {
	if n < 1 {
		n = 1
	}
	cols := 1
	for cols*cols < n {
		cols++
	}
	cfg := channel.DefaultConfig()
	cfg.TxPowerDBm = 5
	p := Plan{APs: make([]geom.Point, n), Channel: cfg}
	for i := 0; i < n; i++ {
		p.APs[i] = geom.Pt(8+17*float64(i%cols), 7+16*float64(i/cols))
	}
	return p
}

// Observation is what a policy sees on each decision tick.
type Observation struct {
	// T is the tick time.
	T float64
	// Cur is the currently associated AP index.
	Cur int
	// CurRSSI is the client's RSSI measurement of the current AP — the
	// only signal a stock client has without scanning.
	CurRSSI float64
	// ScanRSSI holds all APs' RSSI as measured by the client's last scan;
	// nil unless ScanValid (client-side policies must scan to fill it).
	ScanRSSI []float64
	// ScanValid marks ScanRSSI as fresh (set on the tick after a scan).
	ScanValid bool
	// InfraRSSI holds per-AP RSSI measured infrastructure-side from the
	// client's uplink frames/NULL-data probes — available to
	// controller-based policies without any client cost.
	InfraRSSI []float64
	// State is the current AP's classifier output (controller policies).
	State core.State
	// Approaching marks APs the client is moving toward, from the
	// controller's per-AP ToF trend measurements.
	Approaching []bool
}

// Action is a policy's decision for the tick.
type Action struct {
	// StartScan requests a client-side scan (costs airtime; results
	// arrive in the next tick's ScanRSSI).
	StartScan bool
	// RoamTo requests association with the given AP index; -1 means stay.
	RoamTo int
}

// Stay is the no-op action.
var Stay = Action{RoamTo: -1}

// Policy decides association on each tick.
type Policy interface {
	// Name identifies the policy in experiment output.
	Name() string
	// Decide inspects the observation and returns an action.
	Decide(obs Observation) Action
}

// Default80211 is the stock client behaviour: stay with the current AP
// until its RSSI drops below Threshold, then scan and join the strongest.
type Default80211 struct {
	// Threshold is the roam trigger in dBm (typical clients: -75).
	Threshold float64

	scanning bool
}

// NewDefault80211 returns the stock policy with the -75 dBm trigger.
func NewDefault80211() *Default80211 { return &Default80211{Threshold: -75} }

// Name implements Policy.
func (d *Default80211) Name() string { return "default-802.11" }

// Decide implements Policy.
func (d *Default80211) Decide(obs Observation) Action {
	if d.scanning && obs.ScanValid {
		d.scanning = false
		best := argmax(obs.ScanRSSI)
		if best != obs.Cur {
			return Action{RoamTo: best}
		}
		return Stay
	}
	if !d.scanning && obs.CurRSSI < d.Threshold {
		d.scanning = true
		return Action{StartScan: true, RoamTo: -1}
	}
	return Stay
}

// SensorHint is the client-side scheme of paper ref. [1]: when the
// device's accelerometer says it is moving, scan periodically and roam to
// any clearly stronger AP. Scanning costs the client airtime and battery,
// which is the scheme's drawback.
type SensorHint struct {
	// ScanInterval is how often a moving client scans.
	ScanInterval float64
	// HysteresisDB is the required RSSI advantage before roaming.
	HysteresisDB float64

	lastScan float64
	scanning bool
	mobile   bool
}

// NewSensorHint returns the scheme with a 2 s scan interval and 3 dB
// hysteresis.
func NewSensorHint() *SensorHint {
	return &SensorHint{ScanInterval: 2, HysteresisDB: 3, lastScan: -1e9}
}

// Name implements Policy.
func (s *SensorHint) Name() string { return "sensor-hint" }

// Decide implements Policy.
func (s *SensorHint) Decide(obs Observation) Action {
	// The accelerometer provides only the binary moving/still bit.
	s.mobile = obs.State == core.StateMicro ||
		obs.State == core.StateMacroAway || obs.State == core.StateMacroToward
	if s.scanning && obs.ScanValid {
		s.scanning = false
		best := argmax(obs.ScanRSSI)
		if best != obs.Cur && obs.ScanRSSI[best] > obs.ScanRSSI[obs.Cur]+s.HysteresisDB {
			return Action{RoamTo: best}
		}
		return Stay
	}
	if !s.scanning && s.mobile && obs.T-s.lastScan >= s.ScanInterval {
		s.lastScan = obs.T
		s.scanning = true
		return Action{StartScan: true, RoamTo: -1}
	}
	// Fall back to the stock low-RSSI trigger.
	if !s.scanning && obs.CurRSSI < -75 {
		s.scanning = true
		return Action{StartScan: true, RoamTo: -1}
	}
	return Stay
}

// MobilityAware is the paper's controller-based protocol (§3.1): roam only
// when the classifier reports macro-mobility away from the current AP and
// the infrastructure sees at least one candidate AP with similar-or-better
// signal that the client is approaching. No client scanning is needed; the
// forced reassociation still costs the handoff time.
type MobilityAware struct {
	// SimilarDB allows candidates within this much of the current AP's
	// RSSI (the candidate will keep improving as the client approaches).
	SimilarDB float64
	// MinInterval throttles consecutive forced roams.
	MinInterval float64

	lastRoam float64
}

// NewMobilityAware returns the controller policy.
func NewMobilityAware() *MobilityAware {
	return &MobilityAware{SimilarDB: 3, MinInterval: 3, lastRoam: -1e9}
}

// Name implements Policy.
func (m *MobilityAware) Name() string { return "motion-aware" }

// Decide implements Policy.
func (m *MobilityAware) Decide(obs Observation) Action {
	if obs.State != core.StateMacroAway || obs.T-m.lastRoam < m.MinInterval {
		return Stay
	}
	best, bestRSSI := -1, -1e9
	for i, rssi := range obs.InfraRSSI {
		if i == obs.Cur || !obs.Approaching[i] {
			continue
		}
		if rssi >= obs.InfraRSSI[obs.Cur]-m.SimilarDB && rssi > bestRSSI {
			best, bestRSSI = i, rssi
		}
	}
	if best >= 0 {
		m.lastRoam = obs.T
		return Action{RoamTo: best}
	}
	return Stay
}

func argmax(xs []float64) int {
	best, bestV := 0, -1e18
	for i, v := range xs {
		if v > bestV {
			best, bestV = i, v
		}
	}
	return best
}

// ExpectedThroughput estimates the goodput a client would get from an AP
// whose link currently has the given effective SNR: the best sustainable
// MCS's rate scaled by MAC efficiency (paper ref. [8] style RSSI-to-
// throughput mapping).
func ExpectedThroughput(effSNRdB float64, maxStreams int) float64 {
	m := phy.OptimalMCS(phy.Width40, true, effSNRdB, 1500, maxStreams)
	tput := phy.Throughput(m, phy.Width40, true, effSNRdB, 1500)
	const macEfficiency = 0.75 // preamble/IFS/BlockAck amortized over A-MPDUs
	return tput * macEfficiency
}

// Runner simulates a client walking a scenario across the plan's APs under
// a roaming policy.
type Runner struct {
	Plan Plan
	// TickDt is the decision tick (100 ms).
	TickDt float64
	// HandoffCost is the association gap (paper: ~200 ms; 40 ms with
	// 802.11r).
	HandoffCost float64
	// ScanCost is the off-channel time of a full scan.
	ScanCost float64
	// Obs, when non-nil, collects handoff/scan telemetry and classifier
	// metrics; Trial keys the per-trial tracer (distinct concurrent
	// trials must use distinct keys).
	Obs   *obs.Scope
	Trial int
}

// NewRunner returns a runner with the paper's costs.
func NewRunner(plan Plan) *Runner {
	return &Runner{Plan: plan, TickDt: 0.1, HandoffCost: 0.2, ScanCost: 0.06}
}

// Result summarizes a roaming run.
type Result struct {
	// Mbps is the mean achieved throughput.
	Mbps float64
	// Handoffs counts association changes.
	Handoffs int
	// Scans counts client scans.
	Scans int
	// Timeline holds (time, throughput) samples.
	Timeline []stats.Point
}

// Run simulates the scenario under the policy. Throughput per tick is the
// expected goodput from the associated AP, zeroed while scanning or
// reassociating. seed controls measurement noise.
func (r *Runner) Run(scen *mobility.Scenario, pol Policy, seed uint64) Result {
	rng := stats.NewRNG(seed)
	nAP := len(r.Plan.APs)
	links := make([]*channel.Model, nAP)
	for i, ap := range r.Plan.APs {
		links[i] = channel.NewAt(r.Plan.Channel, ap, scen, rng.Split(uint64(i)+1))
	}
	maxStreams := phy.MaxStreams(r.Plan.Channel.NTx, r.Plan.Channel.NRx)

	// Telemetry (all sinks nil-safe when r.Obs is nil).
	reg := r.Obs.Registry()
	tr := r.Obs.Tracer(r.Trial)
	handoffs := reg.Counter("roaming.handoffs")
	scans := reg.Counter("roaming.scans")
	clsMet := core.NewMetrics(reg)
	newCls := func() *core.Classifier {
		c := core.New(core.DefaultConfig())
		c.Instrument(clsMet, tr)
		return c
	}

	// Controller-side instrumentation: a classifier pipeline on the
	// current AP and per-AP ToF trend detectors.
	cls := newCls()
	meter := tof.NewMeter(tof.DefaultConfig(), rng.Split(777))
	trends := make([]*tof.TrendDetector, nAP)
	filters := make([]*stats.MedianFilter, nAP)
	for i := range trends {
		trends[i] = tof.NewTrendDetector(3, 0, 0.8)
		filters[i] = &stats.MedianFilter{}
	}

	// Initial association: strongest AP.
	cur := 0
	bestRSSI := -1e18
	for i, l := range links {
		if v := l.MeanRSSI(0); v > bestRSSI {
			cur, bestRSSI = i, v
		}
	}

	var res Result
	var bits float64
	// One measurement buffer shared across all AP channels: the classifier
	// copies, and the RSSI/SNR consumers below do not retain the matrix.
	var csiBuf *csi.Matrix
	busyUntil := -1.0 // scanning/handoff gap end
	scanPending := false
	nextCSI, nextToF := 0.0, 0.0
	lastFlush := 0.0

	for t := 0.0; t < scen.Duration; t += r.TickDt {
		// Measurement plane (runs regardless of data-plane gaps).
		for nextCSI <= t {
			s := links[cur].MeasureInto(nextCSI, csiBuf)
			csiBuf = s.CSI
			cls.ObserveCSI(nextCSI, s.CSI)
			nextCSI += cls.Config().CSISamplePeriod
		}
		for nextToF <= t {
			if cls.ToFActive() {
				cls.ObserveToF(nextToF, meter.Raw(links[cur].Distance(nextToF)))
			}
			// Controller NULL-frame probing of every AP.
			for i := range links {
				filters[i].Add(meter.Raw(links[i].Distance(nextToF)))
			}
			nextToF += 0.02
		}
		if t-lastFlush >= 1 {
			lastFlush = t
			for i := range links {
				if med, ok := filters[i].Flush(); ok {
					trends[i].Push(med)
				}
			}
		}

		curSample := links[cur].MeasureInto(t, csiBuf)
		csiBuf = curSample.CSI
		view := Observation{
			T:           t,
			Cur:         cur,
			CurRSSI:     curSample.RSSIdBm,
			InfraRSSI:   make([]float64, nAP),
			State:       cls.State(),
			Approaching: make([]bool, nAP),
		}
		for i, l := range links {
			s := l.MeasureInto(t, csiBuf)
			csiBuf = s.CSI
			view.InfraRSSI[i] = s.RSSIdBm
			view.Approaching[i] = trends[i].Trend() == stats.TrendDecreasing
		}
		if scanPending && t >= busyUntil {
			view.ScanRSSI = view.InfraRSSI // client scan sees the same radios
			view.ScanValid = true
			scanPending = false
		}

		act := pol.Decide(view)
		if act.StartScan && t >= busyUntil {
			busyUntil = t + r.ScanCost
			scanPending = true
			res.Scans++
			scans.Inc()
			tr.Emit(t, "roaming", "scan", float64(cur), 0, "")
		}
		if act.RoamTo >= 0 && act.RoamTo != cur && t >= busyUntil {
			tr.Emit(t, "roaming", "handoff", float64(cur), float64(act.RoamTo), core.StateLabel(view.State))
			cur = act.RoamTo
			busyUntil = t + r.HandoffCost
			res.Handoffs++
			handoffs.Inc()
			// The new AP starts with a fresh view of the client.
			cls = newCls()
		}

		// Data plane.
		tput := 0.0
		if t >= busyUntil {
			ds := links[cur].MeasureInto(t, csiBuf)
			csiBuf = ds.CSI
			effSNR := phy.EffectiveSNRdB(ds.CSI, links[cur].SNRdB(t))
			tput = ExpectedThroughput(effSNR, maxStreams)
		}
		bits += tput * 1e6 * r.TickDt
		res.Timeline = append(res.Timeline, stats.Point{X: t, Y: tput})
	}
	res.Mbps = bits / scen.Duration / 1e6
	return res
}
