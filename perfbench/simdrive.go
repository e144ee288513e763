package main

import (
	"sort"

	"mobiwlan/internal/aggregation"
	"mobiwlan/internal/channel"
	"mobiwlan/internal/core"
	"mobiwlan/internal/csi"
	"mobiwlan/internal/mac"
	"mobiwlan/internal/medium"
	"mobiwlan/internal/mobility"
	"mobiwlan/internal/phy"
	"mobiwlan/internal/ratecontrol"
	"mobiwlan/internal/roaming"
	"mobiwlan/internal/sim"
	"mobiwlan/internal/stats"
	"mobiwlan/internal/tof"
	"mobiwlan/internal/transport"
)

// client is the traced driver's copy of one fleet client's protocol
// stack. It repeats internal/sim's per-client state machine call for
// call, through the same public constructors, RNG splits and call order,
// with a span around every call into a layer. A traced fleet therefore
// reproduces the untraced sim result bit for bit; every traced run checks
// that by digest.
type client struct {
	scen *mobility.Scenario
	opt  sim.WLANOptions
	src  transport.Source
	tr   *tracer

	links []*mac.Link
	apIdx []int

	aggPol  aggregation.Policy
	roamPol roaming.Policy

	cls     *core.Classifier
	adapter ratecontrol.Adapter
	meter   *tof.Meter
	trends  []*tof.TrendDetector
	filters []*stats.MedianFilter

	medRNG        *stats.RNG
	noiseFloorDBm float64

	cur         int
	t           float64
	bits        float64
	busyUntil   float64
	scanPending bool
	nextCSI     float64
	nextToF     float64
	nextTick    float64
	lastFlush   float64
	csiBuf      *csi.Matrix
	infraRSSI   []float64
	approaching []bool

	pendMCS phy.MCS
	pendN   int
	pendDur float64

	frames uint64
	mpdu   sim.MPDUCounts
	res    sim.WLANResult
}

// newClient builds the stack as sim does: apIdx maps plan APs to global
// AP indices (nil means identity) and keys the link RNG splits.
func newClient(scen *mobility.Scenario, opt sim.WLANOptions, seed uint64, apIdx []int, tr *tracer) *client {
	rng := stats.NewRNG(seed)
	nAP := len(opt.Plan.APs)
	if apIdx == nil {
		apIdx = make([]int, nAP)
		for i := range apIdx {
			apIdx[i] = i
		}
	}
	c := &client{
		scen:          scen,
		opt:           opt,
		tr:            tr,
		apIdx:         apIdx,
		links:         make([]*mac.Link, nAP),
		medRNG:        rng.Split(888),
		noiseFloorDBm: opt.Plan.Channel.NoiseFloorDBm,
		busyUntil:     -1,
		infraRSSI:     make([]float64, nAP),
		approaching:   make([]bool, nAP),
	}
	for i, ap := range opt.Plan.APs {
		gi := uint64(apIdx[i])
		ch := channel.NewAt(opt.Plan.Channel, ap, scen, rng.Split(gi+1))
		c.links[i] = mac.NewLink(ch, rng.Split(gi+100))
	}
	c.src = opt.Source
	if c.src == nil {
		c.src = transport.Saturated{}
	}
	c.aggPol = aggregation.Fixed{Limit: 4e-3}
	c.roamPol = roaming.NewDefault80211()
	if opt.MotionAware {
		c.aggPol = aggregation.Adaptive{}
		c.roamPol = roaming.NewMobilityAware()
	}
	c.cls = core.New(core.DefaultConfig())
	c.meter = tof.NewMeter(tof.DefaultConfig(), rng.Split(777))
	c.trends = make([]*tof.TrendDetector, nAP)
	c.filters = make([]*stats.MedianFilter, nAP)
	for i := range c.trends {
		c.trends[i] = tof.NewTrendDetector(3, 0, 0.8)
		c.filters[i] = &stats.MedianFilter{}
	}
	bestRSSI := -1e18
	for i, l := range c.links {
		if v := l.Chan.MeanRSSI(0); v > bestRSSI {
			c.cur, bestRSSI = i, v
		}
	}
	c.adapter = c.newAdapter()
	return c
}

func (c *client) newAdapter() ratecontrol.Adapter {
	if c.opt.MotionAware {
		return ratecontrol.NewMobilityAware(ratecontrol.DefaultLinkConfig())
	}
	return ratecontrol.NewAtheros(ratecontrol.DefaultLinkConfig())
}

func (c *client) curBSS() int { return c.apIdx[c.cur] }

// advance runs the control loop until a frame is ready (false) or the
// scenario ends (true), as sim's client does.
func (c *client) advance() bool {
	const tick = 0.1
	const idleStep = 1e-3
	tr := c.tr
	for c.t < c.scen.Duration {
		t := c.t
		for c.nextCSI <= t {
			tr.begin(spanChannelMeasure)
			s := c.links[c.cur].Chan.MeasureInto(c.nextCSI, c.csiBuf)
			tr.end()
			c.csiBuf = s.CSI
			tr.begin(spanCoreObserve)
			c.cls.ObserveCSI(c.nextCSI, s.CSI)
			tr.end()
			c.nextCSI += c.cls.Config().CSISamplePeriod
		}
		for c.nextToF <= t {
			tr.begin(spanToFSample)
			if c.cls.ToFActive() {
				raw := c.meter.Raw(c.links[c.cur].Chan.Distance(c.nextToF))
				tr.begin(spanCoreObserve)
				c.cls.ObserveToF(c.nextToF, raw)
				tr.end()
			}
			for i := range c.links {
				c.filters[i].Add(c.meter.Raw(c.links[i].Chan.Distance(c.nextToF)))
			}
			tr.end()
			c.nextToF += 0.02
		}
		if t-c.lastFlush >= 1 {
			tr.begin(spanToFSample)
			c.lastFlush = t
			for i := range c.links {
				if med, ok := c.filters[i].Flush(); ok {
					c.trends[i].Push(med)
				}
			}
			tr.end()
		}
		if t >= c.nextTick {
			c.nextTick = t + tick
			tr.begin(spanRoamDecide)
			c.roamTick(t)
			tr.end()
		}

		if c.t < c.busyUntil {
			c.t = c.busyUntil
			continue
		}

		state := core.StateUnknown
		tr.begin(spanRateStep)
		if c.opt.MotionAware {
			state = c.cls.State()
			if sa, ok := c.adapter.(ratecontrol.StateAware); ok {
				sa.SetState(state)
			}
		}
		mcs := c.adapter.SelectRate(c.t)
		tr.end()
		link := c.links[c.cur]
		tr.begin(spanAggLimit)
		maxN := aggregation.MPDUs(c.aggPol, state, mcs, link.Width, link.SGI, link.MPDUBytes)
		tr.end()
		n := c.src.Demand(c.t, maxN)
		if n <= 0 {
			c.t += idleStep
			continue
		}
		c.pendMCS, c.pendN = mcs, n
		c.pendDur = phy.ExchangeAirtime(link.Timing, mcs, link.Width, link.SGI, n*link.MPDUBytes, n)
		return false
	}
	return true
}

// roamTick is one roaming decision: every AP measures the client, the
// policy decides, and a scan or handoff may follow.
func (c *client) roamTick(t float64) {
	tr := c.tr
	view := roaming.Observation{
		T:           t,
		Cur:         c.cur,
		InfraRSSI:   c.infraRSSI,
		State:       c.cls.State(),
		Approaching: c.approaching,
	}
	for i, l := range c.links {
		tr.begin(spanChannelMeasure)
		s := l.Chan.MeasureInto(t, c.csiBuf)
		tr.end()
		c.csiBuf = s.CSI
		view.InfraRSSI[i] = s.RSSIdBm
		view.Approaching[i] = c.trends[i].Trend() == stats.TrendDecreasing
	}
	view.CurRSSI = view.InfraRSSI[c.cur]
	if c.scanPending && t >= c.busyUntil {
		view.ScanRSSI = view.InfraRSSI
		view.ScanValid = true
		c.scanPending = false
	}
	act := c.roamPol.Decide(view)
	if act.StartScan && t >= c.busyUntil {
		c.busyUntil = t + c.opt.ScanCost
		c.scanPending = true
		c.res.Scans++
	}
	if act.RoamTo >= 0 && act.RoamTo != c.cur && t >= c.busyUntil {
		c.cur = act.RoamTo
		c.busyUntil = t + c.opt.HandoffCost
		c.res.Handoffs++
		c.cls = core.New(core.DefaultConfig())
		c.adapter = c.newAdapter()
	}
}

// transmit sends the pending frame at start, applying the medium's
// collision and OBSS outcome, as sim's client does.
func (c *client) transmit(start float64, collided bool, interfDBm, overlapFrac float64) {
	tr := c.tr
	link := c.links[c.cur]
	tr.begin(spanMACTransmit)
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
	tr.end()
	c.frames++
	tr.begin(spanRateStep)
	c.adapter.OnResult(start+fr.Airtime, fr)
	tr.end()
	c.src.OnDelivery(start+fr.Airtime, fr.NMPDU, fr.Delivered, fr.BlockAck)
	c.bits += fr.Goodput(link.MPDUBytes)
	c.t = start + fr.Airtime
}

func (c *client) result() sim.WLANResult {
	if c.scen.Duration > 0 {
		c.res.Mbps = c.bits / c.scen.Duration / 1e6
	}
	return c.res
}

// cacheStats sums the response-cache counters of the client's channels.
func (c *client) cacheStats() channel.CacheStats {
	var s channel.CacheStats
	for _, l := range c.links {
		cs := l.Chan.CacheStats()
		s.Hits += cs.Hits
		s.Misses += cs.Misses
		s.PathEvals += cs.PathEvals
		s.PathReuses += cs.PathReuses
	}
	return s
}

// layerCounts are the per-layer counts a traced run collects besides its
// spans.
type layerCounts struct {
	frames     uint64
	mpdu       sim.MPDUCounts
	cache      channel.CacheStats
	reserves   uint64
	granted    uint64
	clientSimS float64
}

func (l *layerCounts) addClient(c *client) {
	l.frames += c.frames
	l.mpdu = addMPDU(l.mpdu, c.mpdu)
	cs := c.cacheStats()
	l.cache.Hits += cs.Hits
	l.cache.Misses += cs.Misses
	l.clientSimS += c.scen.Duration
}

func (l *layerCounts) merge(o layerCounts) {
	l.frames += o.frames
	l.mpdu = addMPDU(l.mpdu, o.mpdu)
	l.cache.Hits += o.cache.Hits
	l.cache.Misses += o.cache.Misses
	l.reserves += o.reserves
	l.granted += o.granted
	l.clientSimS += o.clientSimS
}

func addMPDU(a, b sim.MPDUCounts) sim.MPDUCounts {
	a.Offered += b.Offered
	a.Delivered += b.Delivered
	a.PERLost += b.PERLost
	a.CollisionLost += b.CollisionLost
	a.OBSSLost += b.OBSSLost
	return a
}

// finish fills the fleet aggregates in client order, as sim does.
func finish(r *sim.FleetResult) {
	r.TotalMbps, r.Handoffs, r.Scans = 0, 0, 0
	for _, c := range r.PerClient {
		r.TotalMbps += c.Mbps
		r.Handoffs += c.Handoffs
		r.Scans += c.Scans
	}
	if n := len(r.PerClient); n > 0 {
		r.MeanMbps = r.TotalMbps / float64(n)
	}
}

// contendSetup is one contended client's inputs.
type contendSetup struct {
	scen  *mobility.Scenario
	w     sim.WLANOptions
	seed  uint64
	apIdx []int
	mode  mobility.Mode
}

// subPlanFor restricts plan to the maxAPs APs nearest home (ties by
// index), returning the restricted plan and its global AP indices in
// ascending order, as the contended fleet does.
func subPlanFor(plan roaming.Plan, home, maxAPs int) (roaming.Plan, []int) {
	n := len(plan.APs)
	k := maxAPs
	if k <= 0 || k > n {
		k = n
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	hp := plan.APs[home]
	sort.Slice(idx, func(a, b int) bool {
		da, db := plan.APs[idx[a]].Dist(hp), plan.APs[idx[b]].Dist(hp)
		if da != db {
			return da < db
		}
		return idx[a] < idx[b]
	})
	apIdx := idx[:k]
	sort.Ints(apIdx)
	sub := roaming.Plan{Channel: plan.Channel}
	for _, gi := range apIdx {
		sub.APs = append(sub.APs, plan.APs[gi])
	}
	return sub, apIdx
}

// runContended drives the clients through one shared medium with the
// contended fleet's serial event loop, spans around every medium call.
func runContended(plan roaming.Plan, channels []int, setups []contendSetup, tr *tracer, lc *layerCounts) sim.FleetResult {
	n := len(setups)
	mcfg := medium.DefaultConfig()
	mcfg.TxPowerDBm = plan.Channel.TxPowerDBm
	mcfg.NoiseFloorDBm = plan.Channel.NoiseFloorDBm
	mcfg.CarrierHz = plan.Channel.CarrierHz
	mcfg.PathLossExponent = plan.Channel.PathLossExponent
	mcfg.PathLossBreakM = plan.Channel.PathLossBreakM
	med := medium.New(mcfg)
	for i, ap := range plan.APs {
		med.AddBSS(ap, channels[i])
	}

	clients := make([]*client, n)
	h := medium.NewEventHeap(n)
	for i, s := range setups {
		c := newClient(s.scen, s.w, s.seed, s.apIdx, tr)
		med.AddStation(c.medRNG)
		clients[i] = c
		if !c.advance() {
			tr.begin(spanMediumEvents)
			h.Push(medium.Event{T: c.t, BSS: c.curBSS(), Client: i})
			tr.end()
		}
	}
	for h.Len() > 0 {
		tr.begin(spanMediumEvents)
		ev := h.Pop()
		tr.end()
		c := clients[ev.Client]
		tr.begin(spanMediumReserve)
		g := med.Reserve(ev.Client, c.curBSS(), ev.T, c.pendDur, c.scen.Client.At(ev.T))
		tr.end()
		lc.reserves++
		if !g.Granted {
			tr.begin(spanMediumEvents)
			h.Push(medium.Event{T: g.RetryAt, BSS: c.curBSS(), Client: ev.Client})
			tr.end()
			continue
		}
		lc.granted++
		c.transmit(g.Start, g.Collided, g.InterfDBm, g.OverlapFrac)
		if !c.advance() {
			tr.begin(spanMediumEvents)
			h.Push(medium.Event{T: c.t, BSS: c.curBSS(), Client: ev.Client})
			tr.end()
		}
	}

	res := sim.FleetResult{PerClient: make([]sim.ClientResult, n)}
	cs := &sim.ContendStats{PerClient: make([]sim.MPDUCounts, n)}
	for i, c := range clients {
		res.PerClient[i] = sim.ClientResult{Client: i, Mode: setups[i].mode, WLANResult: c.result()}
		cs.PerClient[i] = c.mpdu
		cs.MPDU = addMPDU(cs.MPDU, c.mpdu)
		lc.addClient(c)
	}
	ms := med.Stats()
	cs.BSS = ms.BSS
	cs.Domains = ms.Domains
	res.Contend = cs
	finish(&res)
	return res
}
