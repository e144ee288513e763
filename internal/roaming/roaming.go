// Package roaming holds the policy side of the paper's §3 client-roaming
// study: a multi-AP floor plan, the default 802.11 client association
// behaviour, the sensor-hint client-side roaming of paper ref. [1], and
// the paper's controller-based mobility-aware roaming protocol that forces
// a handoff only when the client is walking away from its AP and a better
// candidate (stronger signal, client heading toward it) exists. The
// client loop that feeds the policies is sim's (sim.RunRoaming and the
// WLAN client).
package roaming

import (
	"mobiwlan/internal/channel"
	"mobiwlan/internal/core"
	"mobiwlan/internal/geom"
	"mobiwlan/internal/phy"
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

// The paper's §3.1 thresholds for MobilityAware: a candidate within
// similarDB of the current AP's RSSI is admitted (it keeps improving as
// the client approaches), and forced roams are at least minRoamInterval
// seconds apart. ctlproto.Coordinator applies the same 3 dB band on the
// real control plane.
const (
	similarDB       = 3
	minRoamInterval = 3
)

// MobilityAware is the paper's controller-based protocol (§3.1): roam only
// when the classifier reports macro-mobility away from the current AP and
// the infrastructure sees at least one candidate AP with similar-or-better
// signal that the client is approaching. No client scanning is needed; the
// forced reassociation still costs the handoff time.
type MobilityAware struct {
	lastRoam float64
}

// NewMobilityAware returns the controller policy.
func NewMobilityAware() *MobilityAware {
	return &MobilityAware{lastRoam: -1e9}
}

// Name implements Policy.
func (m *MobilityAware) Name() string { return "motion-aware" }

// Decide implements Policy.
func (m *MobilityAware) Decide(obs Observation) Action {
	if obs.State != core.StateMacroAway || obs.T-m.lastRoam < minRoamInterval {
		return Stay
	}
	best, bestRSSI := -1, -1e9
	for i, rssi := range obs.InfraRSSI {
		if i == obs.Cur || !obs.Approaching[i] {
			continue
		}
		if rssi >= obs.InfraRSSI[obs.Cur]-similarDB && rssi > bestRSSI {
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
