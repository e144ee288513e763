package sim

import (
	"mobiwlan/internal/aggregation"
	"mobiwlan/internal/core"
	"mobiwlan/internal/geom"
	"mobiwlan/internal/mac"
	"mobiwlan/internal/medium"
	"mobiwlan/internal/mobility"
	"mobiwlan/internal/obs"
	"mobiwlan/internal/phy"
	"mobiwlan/internal/ratecontrol"
	"mobiwlan/internal/roaming"
	"mobiwlan/internal/stats"
	"mobiwlan/internal/transport"
)

// WLANOptions configures the multi-AP end-to-end simulation (paper §7)
// and, minus MotionAware and Source, RunRoaming.
type WLANOptions struct {
	// Plan is the AP deployment.
	Plan roaming.Plan
	// MotionAware enables the paper's full stack: mobility-aware rate
	// control, adaptive aggregation, and controller-based roaming, all
	// driven by the classifier. When false the stack is the mobility-
	// oblivious default: stock Atheros RA, fixed 4 ms aggregation, and
	// the client's RSSI-threshold roaming.
	MotionAware bool
	// Source is the traffic source (nil means saturated UDP, matching the
	// paper's iperf UDP tests).
	Source transport.Source
	// HandoffCost is the association gap in seconds.
	HandoffCost float64
	// ScanCost is the client's off-channel scan time.
	ScanCost float64
	// Obs, when non-nil, collects classifier, MAC, rate-control, and
	// handoff telemetry; Trial keys the per-trial tracer (distinct
	// concurrent trials must use distinct keys).
	Obs   *obs.Scope
	Trial int
}

// DefaultWLANOptions returns the Fig. 13 setting: the six-AP floor,
// 200 ms handoffs and 60 ms scans.
func DefaultWLANOptions(motionAware bool) WLANOptions {
	return WLANOptions{
		Plan:        roaming.DefaultPlan(),
		MotionAware: motionAware,
		HandoffCost: 0.2,
		ScanCost:    0.06,
	}
}

// WLANResult summarizes an end-to-end run.
type WLANResult struct {
	// Mbps is the end-to-end goodput over the whole run.
	Mbps float64
	// Handoffs counts association changes.
	Handoffs int
	// Scans counts client scans.
	Scans int
}

// MPDUCounts reconciles a client's offered load with its loss causes. The
// conservation law tested by the contention suite:
// Offered == Delivered + PERLost + CollisionLost + OBSSLost.
type MPDUCounts struct {
	// Offered counts every MPDU handed to the MAC.
	Offered uint64
	// Delivered counts MPDUs acknowledged end to end.
	Delivered uint64
	// PERLost counts MPDUs lost to the channel error model.
	PERLost uint64
	// CollisionLost counts MPDUs lost to CSMA/CA backoff collisions.
	CollisionLost uint64
	// OBSSLost counts MPDUs lost to co-channel interference from another
	// contention domain.
	OBSSLost uint64
}

// wlanClient is one client's full protocol stack (the roaming station's
// channels, classifier and ToF trend probes, plus MAC links, rate control,
// aggregation, the roaming policy and the traffic source) as a resumable
// state machine. advance() runs the control loop until a frame is ready;
// transmit() sends it at a (possibly deferred) start time. RunWLAN
// alternates the two back to back, which reproduces the original
// single-loop simulation draw for draw; the contended fleet driver
// interleaves many clients through a shared medium between the two calls.
type wlanClient struct {
	station
	scen *mobility.Scenario
	src  transport.Source

	links []*mac.Link

	newAdapter  func() ratecontrol.Adapter
	aggPol      aggregation.Policy
	roamPol     roaming.Policy
	adapter     ratecontrol.Adapter
	motionAware bool

	// medRNG is a dedicated split for medium-level draws (OBSS interference
	// survival); it never perturbs the frame/channel RNG streams, which is
	// what keeps contended and uncontended single-client runs bit-identical.
	medRNG        *stats.RNG
	noiseFloorDBm float64

	t        float64
	bits     float64
	nextTick float64

	// Pending frame between advance() and transmit().
	pendMCS phy.MCS
	pendN   int
	pendDur float64

	mpdu MPDUCounts
}

// newWLANClient builds the stack. apIdx maps each plan AP to its global
// index in the full deployment; nil means identity. RNG splits are keyed
// by the global index (see newStation).
func newWLANClient(scen *mobility.Scenario, opt WLANOptions, seed uint64, apIdx []int) *wlanClient {
	rng := stats.NewRNG(seed)
	c := &wlanClient{
		station:       newStation(scen, opt, rng, apIdx, "sim.wlan.handoffs", "sim.wlan.scans", "sim"),
		scen:          scen,
		src:           opt.Source,
		links:         make([]*mac.Link, len(opt.Plan.APs)),
		motionAware:   opt.MotionAware,
		medRNG:        rng.Split(888),
		noiseFloorDBm: opt.Plan.Channel.NoiseFloorDBm,
	}
	if c.src == nil {
		c.src = transport.Saturated{}
	}

	// Telemetry (all sinks nil-safe when opt.Obs is nil).
	reg := opt.Obs.Registry()
	macMet := mac.NewMetrics(reg)
	rcMet := ratecontrol.NewMetrics(reg)
	for i, ch := range c.chans {
		c.links[i] = mac.NewLink(ch, rng.Split(uint64(c.apIdx[i])+100))
		c.links[i].Met = macMet
	}

	c.newAdapter = func() ratecontrol.Adapter {
		if opt.MotionAware {
			ma := ratecontrol.NewMobilityAware(ratecontrol.DefaultLinkConfig())
			ma.Instrument(rcMet, c.tr)
			return ma
		}
		return ratecontrol.NewAtheros(ratecontrol.DefaultLinkConfig())
	}
	c.aggPol = aggregation.Fixed{Limit: 4e-3}
	c.roamPol = roaming.NewDefault80211()
	if opt.MotionAware {
		c.aggPol = aggregation.Adaptive{}
		c.roamPol = roaming.NewMobilityAware()
	}
	c.adapter = c.newAdapter()
	return c
}

// curBSS returns the global AP index the client is associated to.
func (c *wlanClient) curBSS() int { return c.apIdx[c.cur] }

// pos returns the client position at time t.
func (c *wlanClient) pos(t float64) geom.Point { return c.scen.Client.At(t) }

// advance runs the control loop — measurement catch-up, roaming ticks,
// rate selection, traffic demand — until a frame is ready to transmit
// (returns false; pendMCS/pendN/pendDur describe it) or the scenario ends
// (returns true).
func (c *wlanClient) advance() bool {
	const idleStep = 1e-3
	for c.t < c.scen.Duration {
		t := c.t
		c.catchUp(t)
		if t >= c.nextTick {
			c.nextTick = t + roamTick
			if c.apply(t, c.roamPol.Decide(c.observe(t))) {
				c.adapter = c.newAdapter()
			}
		}

		if c.t < c.busyUntil {
			c.t = c.busyUntil
			continue
		}

		state := core.StateUnknown
		if c.motionAware {
			state = c.cls.State()
			if sa, ok := c.adapter.(ratecontrol.StateAware); ok {
				sa.SetState(state)
			}
		}
		link := c.links[c.cur]
		mcs := c.adapter.SelectRate(c.t)
		maxN := aggregation.MPDUs(c.aggPol, state, mcs, link.Width, link.SGI, link.MPDUBytes)
		n := c.src.Demand(c.t, maxN)
		if n <= 0 {
			c.t += idleStep
			continue
		}
		c.pendMCS, c.pendN = mcs, n
		// ExchangeAirtime is deterministic in (MCS, n), so the frame's
		// duration — what the medium must be asked for — is known before
		// Transmit draws any randomness.
		c.pendDur = phy.ExchangeAirtime(link.Timing, mcs, link.Width, link.SGI, n*link.MPDUBytes, n)
		return false
	}
	return true
}

// transmit sends the pending frame at start (>= the time advance stopped
// at; later when the medium deferred the client). A collided frame loses
// every MPDU. A frame overlapped by a co-channel transmission from another
// contention domain (interfDBm != medium.NoInterference) passes each
// channel-delivered MPDU through an interference survival draw from the
// client's medium RNG split: drop probability is the overlap fraction
// times the PER at the interference-degraded SINR.
func (c *wlanClient) transmit(start float64, collided bool, interfDBm, overlapFrac float64) {
	link := c.links[c.cur]
	fr := link.Transmit(start, c.pendMCS, c.pendN)
	c.mpdu.Offered += uint64(fr.NMPDU)
	if collided {
		c.mpdu.CollisionLost += uint64(fr.NMPDU)
		fr.Delivered = 0
		fr.BlockAck = false
	} else {
		c.mpdu.PERLost += uint64(fr.NMPDU - fr.Delivered)
		if interfDBm != medium.NoInterference && fr.Delivered > 0 {
			sinrI := phy.SINRWithInterferenceDB(fr.EffSNRdB, c.noiseFloorDBm, interfDBm)
			q := overlapFrac * phy.PER(fr.MCS, sinrI, link.MPDUBytes)
			kept := 0
			for k := 0; k < fr.Delivered; k++ {
				if !c.medRNG.Bool(q) {
					kept++
				}
			}
			c.mpdu.OBSSLost += uint64(fr.Delivered - kept)
			fr.Delivered = kept
			fr.BlockAck = kept > 0
		}
		c.mpdu.Delivered += uint64(fr.Delivered)
	}
	c.adapter.OnResult(start+fr.Airtime, fr)
	c.src.OnDelivery(start+fr.Airtime, fr.NMPDU, fr.Delivered, fr.BlockAck)
	c.bits += fr.Goodput(link.MPDUBytes)
	c.t = start + fr.Airtime
}

// result finalizes and returns the run summary.
func (c *wlanClient) result() WLANResult { return c.finish(c.bits, c.scen.Duration) }

// RunWLAN simulates a client moving through the WLAN with the full
// protocol stack at frame granularity, with the medium to itself: every
// frame transmits the moment it is ready (the airtime model already
// charges mean backoff and DIFS per exchange).
func RunWLAN(scen *mobility.Scenario, opt WLANOptions, seed uint64) WLANResult {
	c := newWLANClient(scen, opt, seed, nil)
	for !c.advance() {
		c.transmit(c.t, false, medium.NoInterference, 0)
	}
	return c.result()
}
