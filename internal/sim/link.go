// Package sim wires the full system together: channel → classifier →
// {rate control, aggregation, roaming} → MAC → transport. It provides the
// closed-loop single-link simulator used by the rate-control and
// aggregation experiments, the MAC-free roaming client behind Fig. 7b
// (RunRoaming), and the multi-AP WLAN simulator behind the paper's
// overall evaluation (Fig. 13). The last two share one roaming client
// loop, the station.
package sim

import (
	"mobiwlan/internal/aggregation"
	"mobiwlan/internal/channel"
	"mobiwlan/internal/core"
	"mobiwlan/internal/csi"
	"mobiwlan/internal/mac"
	"mobiwlan/internal/mobility"
	"mobiwlan/internal/obs"
	"mobiwlan/internal/ratecontrol"
	"mobiwlan/internal/stats"
	"mobiwlan/internal/tof"
	"mobiwlan/internal/transport"
)

// LinkOptions configures a closed-loop single-link run.
type LinkOptions struct {
	// Channel is the radio configuration.
	Channel channel.Config
	// Adapter is the rate-control algorithm.
	Adapter ratecontrol.Adapter
	// Agg is the aggregation-limit policy.
	Agg aggregation.Policy
	// Source is the traffic source (nil means saturated UDP).
	Source transport.Source
	// UseClassifier feeds the classifier's state into state-aware
	// protocols. When false, protocols run mobility-oblivious.
	UseClassifier bool
	// OracleState, when set, replaces the classifier output with ground
	// truth — the ablation separating classification error from protocol
	// benefit.
	OracleState func(t float64) core.State
	// Obs, when non-nil, collects classifier, MAC, and rate-control
	// telemetry; Trial keys the per-trial tracer (distinct concurrent
	// trials must use distinct keys).
	Obs   *obs.Scope
	Trial int
}

// DefaultLinkOptions returns a mobility-oblivious stock configuration:
// Atheros RA, fixed 4 ms aggregation, saturated UDP.
func DefaultLinkOptions() LinkOptions {
	return LinkOptions{
		Channel: channel.DefaultConfig(),
		Adapter: ratecontrol.NewAtheros(ratecontrol.DefaultLinkConfig()),
		Agg:     aggregation.Fixed{Limit: 4e-3},
		Source:  transport.Saturated{},
	}
}

// MotionAwareLinkOptions returns the paper's full per-link configuration:
// mobility-aware Atheros RA and adaptive aggregation driven by the
// classifier.
func MotionAwareLinkOptions() LinkOptions {
	opt := DefaultLinkOptions()
	opt.Adapter = ratecontrol.NewMobilityAware(ratecontrol.DefaultLinkConfig())
	opt.Agg = aggregation.Adaptive{}
	opt.UseClassifier = true
	return opt
}

// LinkResult summarizes a closed-loop run.
type LinkResult struct {
	// Mbps is the achieved MAC goodput.
	Mbps float64
	// Frames counts transmit opportunities.
	Frames int
	// DeliveredMPDUs counts acknowledged subframes.
	DeliveredMPDUs int
	// StateDurations accumulates seconds spent in each classifier state.
	StateDurations map[core.State]float64
}

// RunLink simulates the closed loop over a scenario. All measurement noise
// and loss randomness derive from seed.
func RunLink(scen *mobility.Scenario, opt LinkOptions, seed uint64) LinkResult {
	rng := stats.NewRNG(seed)
	ch := channel.New(opt.Channel, scen, rng.Split(1))
	link := mac.NewLink(ch, rng.Split(2))
	meter := tof.NewMeter(tof.DefaultConfig(), rng.Split(3))
	cls := core.New(core.DefaultConfig())
	src := opt.Source
	if src == nil {
		src = transport.Saturated{}
	}
	if opt.Obs != nil {
		tr := opt.Obs.Tracer(opt.Trial)
		cls.Instrument(core.NewMetrics(opt.Obs.Registry()), tr)
		link.Met = mac.NewMetrics(opt.Obs.Registry())
		if ma, ok := opt.Adapter.(*ratecontrol.MobilityAware); ok {
			ma.Instrument(ratecontrol.NewMetrics(opt.Obs.Registry()), tr)
		}
	}

	res := LinkResult{StateDurations: map[core.State]float64{}}
	var bits float64
	var csiBuf *csi.Matrix // reused measurement buffer; the classifier copies
	nextCSI, nextToF := 0.0, 0.0
	csiPeriod := cls.Config().CSISamplePeriod
	const idleStep = 1e-3

	t := 0.0
	prevT := 0.0
	for t < scen.Duration {
		// Measurement plane: CSI from client ACKs, ToF from data-ACK
		// timestamps, at their configured cadences.
		for nextCSI <= t {
			s := ch.MeasureInto(nextCSI, csiBuf)
			csiBuf = s.CSI
			cls.ObserveCSI(nextCSI, s.CSI)
			nextCSI += csiPeriod
		}
		for nextToF <= t {
			if cls.ToFActive() {
				cls.ObserveToF(nextToF, meter.Raw(ch.Distance(nextToF)))
			}
			nextToF += tof.SampleInterval
		}

		state := core.StateUnknown
		switch {
		case opt.OracleState != nil:
			state = opt.OracleState(t)
		case opt.UseClassifier:
			state = cls.State()
		}
		res.StateDurations[state] += t - prevT
		prevT = t
		if sa, ok := opt.Adapter.(ratecontrol.StateAware); ok {
			sa.SetState(state)
		}

		mcs := opt.Adapter.SelectRate(t)
		maxN := aggregation.MPDUs(opt.Agg, state, mcs, link.Width, link.SGI, link.MPDUBytes)
		n := src.Demand(t, maxN)
		if n <= 0 {
			t += idleStep
			continue
		}
		fr := link.Transmit(t, mcs, n)
		opt.Adapter.OnResult(t+fr.Airtime, fr)
		src.OnDelivery(t+fr.Airtime, fr.NMPDU, fr.Delivered, fr.BlockAck)
		bits += fr.Goodput(link.MPDUBytes)
		res.Frames++
		res.DeliveredMPDUs += fr.Delivered
		t += fr.Airtime
	}
	if scen.Duration > 0 {
		res.Mbps = bits / scen.Duration / 1e6
	}
	return res
}

// OracleStateFunc builds a ground-truth state provider for a scenario.
func OracleStateFunc(scen *mobility.Scenario) func(t float64) core.State {
	return func(t float64) core.State {
		mode, heading := scen.GroundTruth(t)
		return core.StateFor(mode, heading)
	}
}
