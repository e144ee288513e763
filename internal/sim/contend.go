package sim

import (
	"fmt"
	"sort"
	"sync"

	"mobiwlan/internal/medium"
	"mobiwlan/internal/mobility"
	"mobiwlan/internal/parallel"
	"mobiwlan/internal/roaming"
	"mobiwlan/internal/stats"
)

// ContendStats is the shared-medium accounting of a contended fleet run.
type ContendStats struct {
	// BSS is the per-BSS contention outcome, indexed by global AP index.
	BSS []medium.BSSStats
	// Domains is the per-contention-domain occupancy accounting.
	Domains []medium.DomainStats
	// MPDU reconciles the fleet's offered load with its loss causes,
	// summed over all clients.
	MPDU MPDUCounts
	// PerClient holds each client's MPDU reconciliation, in client order.
	PerClient []MPDUCounts
}

// contendPlan resolves the AP deployment and per-AP channels for a
// contended run: an explicit plan wins; otherwise a grid sized by opt.APs
// (default: the six-AP Fig. 13 floor). Channels are assigned round-robin
// in AP index order over NumChannels (default 3).
func contendPlan(opt FleetOptions) (roaming.Plan, []int) {
	plan := opt.Plan
	if len(plan.APs) == 0 {
		n := opt.APs
		if n <= 0 {
			n = 6
		}
		plan = roaming.GridPlan(n)
	}
	nch := opt.NumChannels
	if nch <= 0 {
		nch = 3
	}
	channels := make([]int, len(plan.APs))
	for i := range channels {
		channels[i] = i % nch
	}
	return plan, channels
}

// nearestAPs returns the global indices of the k APs nearest to the home
// AP (the home AP itself first), sorted ascending by global index so the
// client's link RNG splits stay keyed to the full deployment.
func nearestAPs(plan roaming.Plan, home, k int) []int {
	n := len(plan.APs)
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
	sub := idx[:k]
	sort.Ints(sub)
	return sub
}

// contendSetup is one prebuilt contended client: everything the shared-
// medium event loop needs, from whichever source (the round-robin fleet or
// a scenario spec) derived it.
type contendSetup struct {
	scen  *mobility.Scenario
	w     WLANOptions
	seed  uint64
	apIdx []int
	mode  mobility.Mode
}

// subPlanFor restricts the deployment to the maxAPs APs nearest home
// (0 = all), returning the restricted plan and the global AP indices it
// covers.
func subPlanFor(plan roaming.Plan, home, maxAPs int) (roaming.Plan, []int) {
	apIdx := nearestAPs(plan, home, maxAPs)
	sub := roaming.Plan{Channel: plan.Channel}
	for _, gi := range apIdx {
		sub.APs = append(sub.APs, plan.APs[gi])
	}
	return sub, apIdx
}

// contendClientSetup derives contended client i's scenario, WLAN options,
// simulation seed, and AP subset — exactly the uncontended fleet's
// per-client derivation (base = Split(seed, i+1), scenario from
// base.Split(1), seed from base.Split(2)), except that the client homes to
// AP i % len(APs) and its scene is translated so the scene AP lands on the
// home AP. Translation preserves the scene generator's draw sequence: the
// generator only draws geometry relative to Bounds and AP.
func contendClientSetup(plan roaming.Plan, opt FleetOptions, seed uint64, trialBase, i int) (
	*mobility.Scenario, WLANOptions, uint64, []int, mobility.Mode) {
	base := stats.NewRNG(seed).Split(uint64(i) + 1)
	mode := mobility.AllModes[i%len(mobility.AllModes)]
	home := i % len(plan.APs)
	scfg := mobility.DefaultSceneConfig()
	if opt.Duration > 0 {
		scfg.Duration = opt.Duration
	}
	dx := plan.APs[home].X - scfg.AP.X
	dy := plan.APs[home].Y - scfg.AP.Y
	scfg.AP = plan.APs[home]
	scfg.Bounds.MinX += dx
	scfg.Bounds.MaxX += dx
	scfg.Bounds.MinY += dy
	scfg.Bounds.MaxY += dy
	scen := mobility.NewScenario(mode, scfg, base.Split(1))

	sub, apIdx := subPlanFor(plan, home, opt.MaxAPs)
	w := DefaultWLANOptions(opt.MotionAware)
	w.Plan = sub
	w.Obs = opt.Obs
	w.Trial = trialBase + i
	return scen, w, base.Split(2).Uint64(), apIdx, mode
}

// runWLANFleetContended drives every client through one shared medium.
// Per-client randomness still derives from Split(seed, client index)
// alone, and the event loop issues every Reserve in the same order at any
// Jobs value (runContendedSetups), so the run is byte-identical at any
// worker count. A fleet of one client on an idle medium reproduces the
// uncontended RunWLAN bit for bit (the immediate-grant path adds no time
// and draws nothing).
func runWLANFleetContended(opt FleetOptions, seed uint64) FleetResult {
	n := opt.Clients
	if n <= 0 {
		return FleetResult{}
	}
	trialBase := opt.TrialBase
	if trialBase == 0 {
		trialBase = fleetTrialBase
	}
	plan, channels := contendPlan(opt)
	setups := make([]contendSetup, n)
	for i := range setups {
		scen, w, cseed, apIdx, mode := contendClientSetup(plan, opt, seed, trialBase, i)
		setups[i] = contendSetup{scen: scen, w: w, seed: cseed, apIdx: apIdx, mode: mode}
	}
	return runContendedSetups(opt, plan, channels, setups)
}

// inFlight is the BSS key of a placeholder event: the heap slot of a
// granted client whose step is still running. It sorts ahead of every
// real event at the same instant, since real BSS ids are >= 0.
const inFlight = -1

// runContendedSetups runs prebuilt contended clients through the shared-
// medium event loop and aggregates the fleet result.
//
// One goroutine, the caller's, owns the medium and the event heap and
// makes every Reserve call. A granted client's step — transmit the frame,
// then advance to the next one — runs on up to opt.Jobs goroutines (0
// means parallel.DefaultJobs(), capped at the client count): the caller
// plus Jobs-1 workers. While the step runs, the client's heap slot holds
// a placeholder at the frame's end, the earliest its next event can come,
// so no event at or after that bound is popped before the step is done
// and the Reserve sequence is the serial one (DESIGN.md §10). Jobs 1 runs
// every step inline, with no goroutines.
func runContendedSetups(opt FleetOptions, plan roaming.Plan, channels []int, setups []contendSetup) FleetResult {
	n := len(setups)
	res := FleetResult{}
	if n == 0 {
		return res
	}
	clientsMet := opt.Obs.Registry().Counter("sim.fleet.clients")

	mcfg := medium.DefaultConfig()
	if opt.CSRangeM > 0 {
		mcfg.CSRangeM = opt.CSRangeM
	}
	mcfg.TxPowerDBm = plan.Channel.TxPowerDBm
	mcfg.NoiseFloorDBm = plan.Channel.NoiseFloorDBm
	mcfg.CarrierHz = plan.Channel.CarrierHz
	mcfg.PathLossExponent = plan.Channel.PathLossExponent
	mcfg.PathLossBreakM = plan.Channel.PathLossBreakM
	med := medium.New(mcfg)
	for i, ap := range plan.APs {
		med.AddBSS(ap, channels[i])
	}

	// Build every client against its home cell. MaxAPs > 0 restricts each
	// client's simulated links to its nearest APs; link RNG splits are
	// keyed by global AP index, so the restriction never changes the
	// channel randomness of the APs that remain.
	clients := make([]*wlanClient, n)
	modes := make([]mobility.Mode, n)
	h := medium.NewEventHeap(n)
	requeue := func(i int) {
		c := clients[i]
		h.Push(medium.Event{T: c.t, BSS: c.curBSS(), Client: i})
	}
	for i := 0; i < n; i++ {
		s := setups[i]
		modes[i] = s.mode
		c := newWLANClient(s.scen, s.w, s.seed, s.apIdx)
		med.AddStation(c.medRNG)
		clients[i] = c
		if !c.advance() {
			requeue(i)
		}
	}

	jobs := opt.Jobs
	if jobs <= 0 {
		jobs = parallel.DefaultJobs()
	}
	if jobs > n {
		jobs = n
	}
	sp := startSteppers(jobs-1, n)
	defer sp.stop()

	// The shared-medium event loop: pop the earliest ready client (ties
	// broken by BSS then client index), ask the medium for its pending
	// frame's airtime, and either step it at the granted start or requeue
	// it at the medium's retry time. Popping a placeholder collects its
	// client's step and queues the client's real next event.
	for h.Len() > 0 {
		ev := h.Pop()
		c := clients[ev.Client]
		if ev.BSS == inFlight {
			if !sp.collect(ev.Client) {
				requeue(ev.Client)
			}
			continue
		}
		g := med.Reserve(ev.Client, c.curBSS(), ev.T, c.pendDur, c.pos(ev.T))
		if !g.Granted {
			h.Push(medium.Event{T: g.RetryAt, BSS: c.curBSS(), Client: ev.Client})
			continue
		}
		r := stepReq{client: ev.Client, c: c, g: g}
		if sp == nil {
			if !r.run() {
				requeue(ev.Client)
			}
			continue
		}
		// transmit leaves c.t at g.Start + the frame airtime, which is
		// pendDur, and advance only moves it forward. Read pendDur before
		// the handoff: from here until collect the client is the step's.
		h.Push(medium.Event{T: g.Start + c.pendDur, BSS: inFlight, Client: ev.Client})
		sp.reqs <- r
	}

	cs := &ContendStats{PerClient: make([]MPDUCounts, n)}
	res.PerClient = make([]ClientResult, n)
	for i, c := range clients {
		res.PerClient[i] = ClientResult{Client: i, Mode: modes[i], WLANResult: c.result()}
		cs.PerClient[i] = c.mpdu
		cs.MPDU.Offered += c.mpdu.Offered
		cs.MPDU.Delivered += c.mpdu.Delivered
		cs.MPDU.PERLost += c.mpdu.PERLost
		cs.MPDU.CollisionLost += c.mpdu.CollisionLost
		cs.MPDU.OBSSLost += c.mpdu.OBSSLost
		clientsMet.Inc()
	}
	ms := med.Stats()
	cs.BSS = ms.BSS
	cs.Domains = ms.Domains
	res.Contend = cs

	publishContendStats(opt, cs)

	res.finish()
	return res
}

// stepReq is one granted client's step. It carries the client itself, so
// the goroutine that receives the request owns the client — its channel
// models, MAC links, tracer and medium RNG — until it reports back.
type stepReq struct {
	client int
	c      *wlanClient
	g      medium.Grant
}

// run transmits the granted frame, advances the client to its next frame
// and reports whether the client's scenario ended instead.
func (r stepReq) run() bool {
	r.c.transmit(r.g.Start, r.g.Collided, r.g.InterfDBm, r.g.OverlapFrac)
	return r.c.advance()
}

// stepOut is a finished step: run's result, or the value it panicked with.
type stepOut struct {
	ended    bool
	panicVal any
}

// steppers is the worker side of the contended event loop. The request
// queue and each client's result slot are sized so no send ever blocks:
// a client has at most one step outstanding, so at most n are queued.
// Each send orders the sender's writes to the client before the
// receiver's first read of it.
type steppers struct {
	reqs chan stepReq
	done []chan stepOut
	wg   sync.WaitGroup
}

// startSteppers starts workers goroutines for a fleet of n clients; it
// returns nil, the inline mode, when workers is 0.
func startSteppers(workers, n int) *steppers {
	if workers <= 0 {
		return nil
	}
	s := &steppers{reqs: make(chan stepReq, n), done: make([]chan stepOut, n)}
	for i := range s.done {
		s.done[i] = make(chan stepOut, 1)
	}
	s.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go s.work()
	}
	return s
}

// work runs queued steps until the queue closes. A panicking step is
// caught and handed to the coordinator, which re-panics when it collects
// that client.
func (s *steppers) work() {
	defer s.wg.Done()
	for r := range s.reqs {
		s.done[r.client] <- r.runCaught()
	}
}

// runCaught runs the step and captures a panic instead of unwinding.
func (r stepReq) runCaught() (out stepOut) {
	defer func() { out.panicVal = recover() }()
	out.ended = r.run()
	return out
}

// collect waits for client i's step and reports whether the client's
// scenario ended. Rather than block while the step is pending, it runs
// queued steps itself, but it checks for i's result first so it never
// starts another step once that result is in: the event loop, not the
// workers, is the critical path. A step that panicked on a worker
// re-panics here, on the caller's goroutine.
func (s *steppers) collect(i int) bool {
	for {
		select {
		case out := <-s.done[i]:
			return out.result()
		default:
		}
		select {
		case out := <-s.done[i]:
			return out.result()
		case r := <-s.reqs:
			s.done[r.client] <- stepOut{ended: r.run()}
		}
	}
}

// result returns whether the client's scenario ended, re-raising the
// step's panic if it had one.
func (o stepOut) result() bool {
	if o.panicVal != nil {
		panic(o.panicVal)
	}
	return o.ended
}

// stop closes the queue and waits for the workers to exit; they finish
// any queued step first. It runs on every return path of the event loop,
// including a panic, so no worker outlives runContendedSetups.
func (s *steppers) stop() {
	if s == nil {
		return
	}
	close(s.reqs)
	s.wg.Wait()
}

// publishContendStats exposes the shared-medium accounting through the
// fleet's observability registry: per-BSS airtime/frames/collisions/
// deferrals, per-domain occupancy, and the fleet MPDU reconciliation.
func publishContendStats(opt FleetOptions, cs *ContendStats) {
	if opt.Obs == nil {
		return
	}
	reg := opt.Obs.Registry()
	for b, s := range cs.BSS {
		p := fmt.Sprintf("medium.bss%03d.", b)
		reg.Gauge(p + "airtime_s").Set(s.AirtimeS)
		reg.Counter(p + "frames").Add(s.Frames)
		reg.Counter(p + "collisions").Add(s.Collisions)
		reg.Counter(p + "deferrals").Add(s.Deferrals)
	}
	for d, s := range cs.Domains {
		p := fmt.Sprintf("medium.domain%03d.", d)
		reg.Gauge(p + "busy_s").Set(s.BusyS)
		reg.Gauge(p + "collision_s").Set(s.CollisionS)
		reg.Counter(p + "collisions").Add(s.Collisions)
	}
	reg.Counter("medium.mpdu.offered").Add(cs.MPDU.Offered)
	reg.Counter("medium.mpdu.delivered").Add(cs.MPDU.Delivered)
	reg.Counter("medium.mpdu.per_lost").Add(cs.MPDU.PERLost)
	reg.Counter("medium.mpdu.collision_lost").Add(cs.MPDU.CollisionLost)
	reg.Counter("medium.mpdu.obss_lost").Add(cs.MPDU.OBSSLost)
}
