package sim

import (
	"mobiwlan/internal/channel"
	"mobiwlan/internal/core"
	"mobiwlan/internal/csi"
	"mobiwlan/internal/mobility"
	"mobiwlan/internal/obs"
	"mobiwlan/internal/phy"
	"mobiwlan/internal/roaming"
	"mobiwlan/internal/stats"
	"mobiwlan/internal/tof"
)

// roamTick is the roaming decision period (paper §3: 100 ms).
const roamTick = 0.1

// station is one client as the controller sees it across the plan: a
// channel to every AP, the serving AP's classifier, the controller's
// per-AP ToF trend probes, and the scan/handoff bookkeeping of the
// roaming tick. RunRoaming drives it alone; the WLAN client embeds it
// under its MAC and rate control.
type station struct {
	chans []*channel.Model
	apIdx []int // global AP index per channel (identity when no subsetting)
	cur   int   // serving AP, an index into chans

	cls     *core.Classifier
	clsMet  *core.Metrics
	meter   *tof.Meter
	filters []stats.MedianFilter // per-AP ToF probes, flushed every second
	trends  []*tof.TrendDetector // per-AP heading from the flushed medians

	nextCSI, nextToF, lastFlush float64
	// csiBuf is one measurement buffer shared across all AP channels: the
	// classifier copies, and the RSSI/SNR consumers do not retain it.
	csiBuf *csi.Matrix

	handoffCost, scanCost float64
	busyUntil             float64 // end of the current scan or handoff gap
	scanPending           bool
	// infraRSSI/approaching back the per-tick roaming Observation. The
	// policies consume the slices inside Decide and never retain them, so
	// one pair per client replaces two allocations per tick.
	infraRSSI   []float64
	approaching []bool

	tr              *obs.Tracer
	cat             string // trace category of the scan/handoff events
	handoffs, scans *obs.Counter
	res             WLANResult
}

// newStation builds the channels to every plan AP and associates with
// the strongest. Channel i draws from rng.Split(apIdx[i]+1) and the ToF
// meter from rng.Split(777); apIdx maps plan APs to global indices (nil
// means identity), so a client simulated against a nearby subset of a
// large plan sees the channel randomness it would against the full plan.
// handoffs and scans name the run's counters, cat its trace category.
func newStation(scen *mobility.Scenario, opt WLANOptions, rng *stats.RNG, apIdx []int, handoffs, scans, cat string) station {
	n := len(opt.Plan.APs)
	if apIdx == nil {
		apIdx = make([]int, n)
		for i := range apIdx {
			apIdx[i] = i
		}
	}
	reg := opt.Obs.Registry()
	s := station{
		chans:       make([]*channel.Model, n),
		apIdx:       apIdx,
		meter:       tof.NewMeter(tof.DefaultConfig(), rng.Split(777)),
		filters:     make([]stats.MedianFilter, n),
		trends:      make([]*tof.TrendDetector, n),
		handoffCost: opt.HandoffCost,
		scanCost:    opt.ScanCost,
		busyUntil:   -1,
		infraRSSI:   make([]float64, n),
		approaching: make([]bool, n),
		tr:          opt.Obs.Tracer(opt.Trial),
		cat:         cat,
		handoffs:    reg.Counter(handoffs),
		scans:       reg.Counter(scans),
		clsMet:      core.NewMetrics(reg),
	}
	bestRSSI := -1e18
	for i, ap := range opt.Plan.APs {
		s.chans[i] = channel.NewAt(opt.Plan.Channel, ap, scen, rng.Split(uint64(apIdx[i])+1))
		s.trends[i] = tof.NewTrendDetector(3, 0, 0.8)
		if v := s.chans[i].MeanRSSI(0); v > bestRSSI {
			s.cur, bestRSSI = i, v
		}
	}
	s.cls = s.newCls()
	return s
}

// newCls returns a fresh classifier for the serving AP.
func (s *station) newCls() *core.Classifier {
	c := core.New(core.DefaultConfig())
	c.Instrument(s.clsMet, s.tr)
	return c
}

// measure samples AP i's channel at t into the shared buffer.
func (s *station) measure(i int, t float64) channel.Sample {
	m := s.chans[i].MeasureInto(t, s.csiBuf)
	s.csiBuf = m.CSI
	return m
}

// catchUp runs the measurement plane up to t, whatever the data plane is
// doing: the serving AP's CSI feeds the classifier, and every 20 ms the
// classifier takes a ToF reading (while it asks for ToF) and the
// controller probes every AP's ToF. Each AP's probes are median-filtered
// per second into its trend detector.
func (s *station) catchUp(t float64) {
	for s.nextCSI <= t {
		s.cls.ObserveCSI(s.nextCSI, s.measure(s.cur, s.nextCSI).CSI)
		s.nextCSI += s.cls.Config().CSISamplePeriod
	}
	for s.nextToF <= t {
		if s.cls.ToFActive() {
			s.cls.ObserveToF(s.nextToF, s.meter.Raw(s.chans[s.cur].Distance(s.nextToF)))
		}
		for i, ch := range s.chans {
			s.filters[i].Add(s.meter.Raw(ch.Distance(s.nextToF)))
		}
		s.nextToF += 0.02
	}
	if t-s.lastFlush >= 1 {
		s.lastFlush = t
		for i := range s.filters {
			if med, ok := s.filters[i].Flush(); ok {
				s.trends[i].Push(med)
			}
		}
	}
}

// observe measures every AP at t and returns the roaming tick's
// Observation. The serving AP is measured once, inside that loop. A scan
// whose off-channel gap is over delivers its results here.
func (s *station) observe(t float64) roaming.Observation {
	view := roaming.Observation{T: t, Cur: s.cur, InfraRSSI: s.infraRSSI, State: s.cls.State(), Approaching: s.approaching}
	for i := range s.chans {
		s.infraRSSI[i] = s.measure(i, t).RSSIdBm
		s.approaching[i] = s.trends[i].Trend() == stats.TrendDecreasing
	}
	view.CurRSSI = s.infraRSSI[s.cur]
	if s.scanPending && t >= s.busyUntil {
		view.ScanRSSI, view.ScanValid = s.infraRSSI, true // a client scan sees the same radios
		s.scanPending = false
	}
	return view
}

// apply carries out a policy's action at t. A scan or handoff starts only
// once the previous gap is over; a handoff gives the new AP a fresh
// classifier. apply reports whether the client handed off.
func (s *station) apply(t float64, act roaming.Action) bool {
	if act.StartScan && t >= s.busyUntil {
		s.busyUntil = t + s.scanCost
		s.scanPending = true
		s.res.Scans++
		s.scans.Inc()
		s.tr.Emit(t, s.cat, "scan", float64(s.cur), 0, "")
	}
	if act.RoamTo < 0 || act.RoamTo == s.cur || t < s.busyUntil {
		return false
	}
	s.tr.Emit(t, s.cat, "handoff", float64(s.cur), float64(act.RoamTo), core.StateLabel(s.cls.State()))
	s.cur = act.RoamTo
	s.busyUntil = t + s.handoffCost
	s.res.Handoffs++
	s.handoffs.Inc()
	s.cls = s.newCls()
	return true
}

// finish returns the run summary for bits delivered over duration seconds.
func (s *station) finish(bits, duration float64) WLANResult {
	if duration > 0 {
		s.res.Mbps = bits / duration / 1e6
	}
	return s.res
}

// RunRoaming walks a client through the plan under a roaming policy at
// the roaming tick alone, without a MAC (Fig. 7b, abl-80211r, mobisim
// roam): each tick earns the serving AP's expected goodput
// (roaming.ExpectedThroughput), nothing while a scan or handoff gap runs.
// opt supplies the plan, the handoff and scan costs and the telemetry;
// pol decides association, so opt.MotionAware and opt.Source are ignored.
// seed controls measurement noise.
func RunRoaming(scen *mobility.Scenario, pol roaming.Policy, opt WLANOptions, seed uint64) WLANResult {
	s := newStation(scen, opt, stats.NewRNG(seed), nil, "roaming.handoffs", "roaming.scans", "roaming")
	maxStreams := phy.MaxStreams(opt.Plan.Channel.NTx, opt.Plan.Channel.NRx)
	var bits float64
	for t := 0.0; t < scen.Duration; t += roamTick {
		s.catchUp(t)
		// CurRSSI comes from its own serving-AP read ahead of observe's.
		// The read advances that channel's noise stream, so dropping it
		// would change every roaming output.
		curRSSI := s.measure(s.cur, t).RSSIdBm
		view := s.observe(t)
		view.CurRSSI = curRSSI
		s.apply(t, pol.Decide(view))
		if t >= s.busyUntil {
			effSNR := phy.EffectiveSNRdB(s.measure(s.cur, t).CSI, s.chans[s.cur].SNRdB(t))
			bits += roaming.ExpectedThroughput(effSNR, maxStreams) * 1e6 * roamTick
		}
	}
	return s.finish(bits, scen.Duration)
}
