package main

import (
	_ "embed"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"

	"mobiwlan/internal/medium"
	"mobiwlan/internal/mobility"
	"mobiwlan/internal/parallel"
	"mobiwlan/internal/roaming"
	"mobiwlan/internal/scenario"
	"mobiwlan/internal/sim"
	"mobiwlan/internal/stats"
)

// hallSpec is the hall-contended scenario: 60 static laptops, 24
// environmental, 36 micro phones and 24 random-waypoint walkers.
//
//go:embed hall.json
var hallSpec []byte

// The hall deployment: a 12-AP grid on 3 channels, each client simulated
// against its 3 nearest APs.
const (
	hallAPs      = 12
	hallChannels = 3
	hallMaxAPs   = 3
)

// csiPeriod is the classifier's CSI sampling period (core.DefaultConfig):
// each client's AP produces one mobility report per sample.
const csiPeriod = 0.050

// fleetSize sizes the fleet-mixed workload.
type fleetSize struct {
	clients  int
	duration float64
	jobs     int
}

var fleetMixedSize = fleetSize{clients: 16, duration: 5, jobs: 2}

func (size fleetSize) options() sim.FleetOptions {
	return sim.FleetOptions{Clients: size.clients, Jobs: size.jobs, MotionAware: true, Duration: size.duration}
}

// fleetInputs derives fleet client i's scenario, options and sim seed as
// sim.RunWLANFleet does.
func fleetInputs(size fleetSize, seed uint64, i int) (*mobility.Scenario, sim.WLANOptions, uint64, mobility.Mode) {
	base := stats.NewRNG(seed).Split(uint64(i) + 1)
	mode := mobility.AllModes[i%len(mobility.AllModes)]
	scfg := mobility.DefaultSceneConfig()
	scfg.Duration = size.duration
	scen := mobility.NewScenario(mode, scfg, base.Split(1))
	return scen, sim.DefaultWLANOptions(true), base.Split(2).Uint64(), mode
}

// tracedFleet runs the fleet through the traced driver on
// parallel.RunTrials, one tracer per client. It returns the fleet result,
// the merged tracer and counts, and the failed per-client checks.
func tracedFleet(size fleetSize, seed uint64) (sim.FleetResult, *tracer, layerCounts, []string) {
	type out struct {
		res sim.ClientResult
		tr  *tracer
		lc  layerCounts
		bad string
	}
	outs := parallel.RunTrials(size.clients, size.jobs, func(i int) out {
		t0 := nanotime()
		tr := newTracer()
		scen, w, cseed, mode := fleetInputs(size, seed, i)
		c := newClient(scen, w, cseed, nil, tr)
		for !c.advance() {
			c.transmit(c.t, false, medium.NoInterference, 0)
		}
		o := out{res: sim.ClientResult{Client: i, Mode: mode, WLANResult: c.result()}, tr: tr}
		o.lc.addClient(c)
		if !conserved(c.mpdu) {
			o.bad = fmt.Sprintf("client %d: MPDUs not conserved: %+v", i, c.mpdu)
		}
		tr.addBusy(nanotime() - t0)
		return o
	})
	res := sim.FleetResult{PerClient: make([]sim.ClientResult, len(outs))}
	tr := newTracer()
	var lc layerCounts
	var bad []string
	for i, o := range outs {
		res.PerClient[i] = o.res
		tr.merge(o.tr)
		lc.merge(o.lc)
		if o.bad != "" {
			bad = append(bad, o.bad)
		}
	}
	finish(&res)
	return res, tr, lc, bad
}

// hallInputs is hall-contended's parsed spec and expanded clients.
type hallInputs struct {
	spec     *scenario.Spec
	plan     roaming.Plan
	channels []int
	setups   []contendSetup
	names    []string
}

// buildHall parses the hall spec and expands its clients against the
// deployment, as sim.RunScenarioFleet does. durationS > 0 shortens the
// spec (tests only).
func buildHall(seed uint64, durationS float64) (*hallInputs, error) {
	spec, err := parseHall(durationS)
	if err != nil {
		return nil, err
	}
	in := &hallInputs{spec: spec, plan: roaming.GridPlan(hallAPs), channels: make([]int, hallAPs)}
	for i := range in.channels {
		in.channels[i] = i % hallChannels
	}
	clients, err := scenario.Build(spec, in.plan.APs, seed)
	if err != nil {
		return nil, err
	}
	for _, bc := range clients {
		sub, apIdx := subPlanFor(in.plan, bc.HomeAP, hallMaxAPs)
		w := sim.DefaultWLANOptions(bc.MotionAware)
		w.Plan = sub
		in.setups = append(in.setups, contendSetup{scen: bc.Scen, w: w, seed: bc.SimSeed, apIdx: apIdx, mode: bc.Mode})
		in.names = append(in.names, bc.Name)
	}
	return in, nil
}

// parseHall parses the hall spec; durationS > 0 shortens it.
func parseHall(durationS float64) (*scenario.Spec, error) {
	spec, err := scenario.Parse("hall.json", hallSpec)
	if err != nil {
		return nil, err
	}
	if durationS > 0 {
		spec.DurationS = durationS
	}
	return spec, nil
}

func hallOptions() sim.FleetOptions {
	return sim.FleetOptions{Contend: true, APs: hallAPs, NumChannels: hallChannels, MaxAPs: hallMaxAPs}
}

// tracedHall runs the hall through the traced contended driver.
func tracedHall(in *hallInputs) (sim.FleetResult, *tracer, layerCounts) {
	tr := newTracer()
	var lc layerCounts
	t0 := nanotime()
	res := runContended(in.plan, in.channels, in.setups, tr, &lc)
	tr.addBusy(nanotime() - t0)
	res.Names = in.names
	return res, tr, lc
}

// conserved checks Offered = Delivered + PERLost + CollisionLost + OBSSLost.
func conserved(m sim.MPDUCounts) bool {
	return m.Offered == m.Delivered+m.PERLost+m.CollisionLost+m.OBSSLost
}

// checkFleet runs the output checks on a fleet result and returns one
// line per failed check: the client count and order, finite goodput, and
// for contended runs MPDU conservation per client and in sum, and
// per-domain airtime Σ BSS AirtimeS + CollisionS = BusyS ≤ duration.
func checkFleet(r sim.FleetResult, clients int, duration float64) []string {
	var bad []string
	if len(r.PerClient) != clients {
		bad = append(bad, fmt.Sprintf("fleet has %d clients, want %d", len(r.PerClient), clients))
	}
	for i, c := range r.PerClient {
		if c.Client != i || math.IsNaN(c.Mbps) || math.IsInf(c.Mbps, 0) || c.Mbps < 0 {
			bad = append(bad, fmt.Sprintf("client %d: bad result %+v", i, c))
		}
	}
	if !(r.TotalMbps > 0) {
		bad = append(bad, fmt.Sprintf("fleet goodput %v Mbps", r.TotalMbps))
	}
	cs := r.Contend
	if cs == nil {
		return bad
	}
	if len(r.Names) != clients || len(cs.PerClient) != clients {
		bad = append(bad, fmt.Sprintf("%d names and %d MPDU counts, want %d", len(r.Names), len(cs.PerClient), clients))
	}
	var sum sim.MPDUCounts
	for i, m := range cs.PerClient {
		if !conserved(m) {
			bad = append(bad, fmt.Sprintf("client %d: MPDUs not conserved: %+v", i, m))
		}
		sum = addMPDU(sum, m)
	}
	if sum != cs.MPDU {
		bad = append(bad, fmt.Sprintf("fleet MPDUs %+v, clients sum to %+v", cs.MPDU, sum))
	}
	for d, dom := range cs.Domains {
		air := dom.CollisionS
		for _, b := range dom.BSS {
			air += cs.BSS[b].AirtimeS
		}
		if math.Abs(air-dom.BusyS) > 1e-9*math.Max(1, dom.BusyS) {
			bad = append(bad, fmt.Sprintf("domain %d: airtime %v + collisions != busy %v", d, air, dom.BusyS))
		}
	}
	return bad
}

// digest fingerprints every field of a fleet result, floats by their
// bits, so two results share a digest only when they are identical.
func digest(r sim.FleetResult) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		_, _ = h.Write(b[:])
	}
	putF := func(v float64) { put(math.Float64bits(v)) }
	putMPDU := func(m sim.MPDUCounts) {
		put(m.Offered)
		put(m.Delivered)
		put(m.PERLost)
		put(m.CollisionLost)
		put(m.OBSSLost)
	}
	for _, c := range r.PerClient {
		put(uint64(c.Client))
		put(uint64(c.Mode))
		putF(c.Mbps)
		put(uint64(c.Handoffs))
		put(uint64(c.Scans))
	}
	for _, n := range r.Names {
		_, _ = io.WriteString(h, n)
	}
	putF(r.TotalMbps)
	putF(r.MeanMbps)
	put(uint64(r.Handoffs))
	put(uint64(r.Scans))
	if cs := r.Contend; cs != nil {
		for _, m := range cs.PerClient {
			putMPDU(m)
		}
		putMPDU(cs.MPDU)
		for _, s := range cs.BSS {
			put(uint64(s.Channel))
			put(uint64(s.Domain))
			put(s.Frames)
			put(s.Collisions)
			put(s.Deferrals)
			putF(s.AirtimeS)
		}
		for _, s := range cs.Domains {
			put(uint64(s.Channel))
			for _, b := range s.BSS {
				put(uint64(b))
			}
			putF(s.BusyS)
			putF(s.CollisionS)
			put(s.Collisions)
		}
	}
	return h.Sum64()
}

// simRun is one sim workload: set-up, the untraced sim call, and the
// traced driver's copy of it, all on the same seed.
type simRun struct {
	clients  int
	duration float64
	// jobs is the parallel.RunTrials worker count; 0 for the serial
	// contended loop.
	jobs int
	// inputs is how many sub-seeds an untraced run cycles over.
	inputs int
	setup  func(seed uint64) error
	// fleet is the program's fleet call.
	fleet func(seed uint64) (sim.FleetResult, error)
	// split, when set, runs the same fleet as separately timed pieces
	// and returns the result with each piece's wall time in seconds.
	// Without it the fleet call is timed as one piece.
	split  func(seed uint64) (sim.FleetResult, []float64)
	traced func(seed uint64) (sim.FleetResult, *tracer, layerCounts, []string, error)
}

// fleetMixed is the default `mobisim fleet` path: sim.RunWLANFleet,
// uncontended and motion-aware, on parallel.RunTrials. Its untraced run
// times the fleet's per-client sim.RunWLAN calls one at a time.
func fleetMixed(size fleetSize) workload {
	r := simRun{
		clients:  size.clients,
		duration: size.duration,
		jobs:     size.jobs,
		inputs:   2,
		setup: func(seed uint64) error {
			// sim builds the clients inside its run call; set-up times
			// the same build on the driver's copy of the stack.
			for i := 0; i < size.clients; i++ {
				scen, w, cseed, _ := fleetInputs(size, seed, i)
				newClient(scen, w, cseed, nil, nil)
			}
			return nil
		},
		fleet: func(seed uint64) (sim.FleetResult, error) {
			return sim.RunWLANFleet(size.options(), seed), nil
		},
		split: func(seed uint64) (sim.FleetResult, []float64) {
			res := sim.FleetResult{PerClient: make([]sim.ClientResult, size.clients)}
			walls := make([]float64, size.clients)
			for i := range res.PerClient {
				t0 := nanotime()
				scen, w, cseed, mode := fleetInputs(size, seed, i)
				res.PerClient[i] = sim.ClientResult{Client: i, Mode: mode, WLANResult: sim.RunWLAN(scen, w, cseed)}
				walls[i] = secondsSince(t0)
			}
			finish(&res)
			return res, walls
		},
		traced: func(seed uint64) (sim.FleetResult, *tracer, layerCounts, []string, error) {
			res, tr, lc, bad := tracedFleet(size, seed)
			return res, tr, lc, bad, nil
		},
	}
	return workload{name: "fleet-mixed", e2e: r.e2e, traced: r.tracedRun}
}

// hallContended is the dense contended cell: sim.RunScenarioFleet with
// Contend on the benchmark's hall spec, a serial shared-medium event
// loop. durationS > 0 shortens the spec (tests only).
func hallContended(durationS float64) workload {
	spec, err := parseHall(durationS)
	if err != nil {
		panic(fmt.Sprintf("hall spec: %v", err)) // the spec is embedded; only a bug gets here
	}
	r := simRun{
		clients:  spec.Total,
		duration: spec.DurationS,
		inputs:   2,
		setup: func(seed uint64) error {
			in, err := buildHall(seed, durationS)
			if err != nil {
				return err
			}
			for _, s := range in.setups {
				newClient(s.scen, s.w, s.seed, s.apIdx, nil)
			}
			return nil
		},
		fleet: func(seed uint64) (sim.FleetResult, error) {
			return sim.RunScenarioFleet(spec, hallOptions(), seed)
		},
		traced: func(seed uint64) (sim.FleetResult, *tracer, layerCounts, []string, error) {
			in, err := buildHall(seed, durationS)
			if err != nil {
				return sim.FleetResult{}, nil, layerCounts{}, nil, err
			}
			res, tr, lc := tracedHall(in)
			return res, tr, lc, nil, nil
		},
	}
	return workload{name: "hall-contended", e2e: r.e2e, traced: r.tracedRun}
}

// timed runs the untraced program on one input and returns its result
// and the wall time of each timed piece.
func (r simRun) timed(seed uint64) (sim.FleetResult, []float64, error) {
	if r.split != nil {
		res, walls := r.split(seed)
		return res, walls, nil
	}
	t0 := nanotime()
	res, err := r.fleet(seed)
	return res, []float64{secondsSince(t0)}, err
}

// e2e is the untraced run: set-up and the program, one fleet a round,
// cycling over r.inputs sub-seeds until the measuring time is spent.
// Every timed piece of an input counts with its fastest repeat, and an
// input's fleet time is the sum of its pieces. On a shared host a
// neighbour can slow every round for tens of seconds, so a median of
// rounds measures the neighbours; the best of a piece's repeats is the
// program's own speed, and short pieces find it more often. Repeats of
// an input must give the same result, and a split fleet the same result
// as the program's fleet call.
func (r simRun) e2e(p params) (outcome, error) {
	out := newOutcome()
	var setups []float64
	best := make([][]float64, r.inputs)
	digests := make([]uint64, r.inputs)
	start := nanotime()
	k := 0
	for ; k < r.inputs || secondsSince(start) < p.seconds; k++ {
		i := k % r.inputs
		seed := subSeed(p.seed, i)
		t0 := nanotime()
		if err := r.setup(seed); err != nil {
			return out, err
		}
		setups = append(setups, secondsSince(t0))
		res, walls, err := r.timed(seed)
		if err != nil {
			return out, err
		}
		out.attempted += r.clients
		out.fail(p.log, checkFleet(res, r.clients, r.duration))
		d := digest(res)
		if k >= r.inputs {
			for j, w := range walls {
				best[i][j] = math.Min(best[i][j], w)
			}
			if d != digests[i] {
				out.fail(p.log, []string{fmt.Sprintf("seed %d: repeat gave digest %016x, first run %016x", seed, d, digests[i])})
			}
			continue
		}
		best[i], digests[i] = walls, d
		_, _ = fmt.Fprintf(p.log, "digest seed=%d %016x\n", seed, d)
		if r.split != nil {
			ref, err := r.fleet(seed)
			if err != nil {
				return out, err
			}
			if rd := digest(ref); rd != d {
				out.fail(p.log, []string{fmt.Sprintf("seed %d: split fleet digest %016x, fleet call %016x", seed, d, rd)})
			}
		}
	}
	fleetS := make([]float64, r.inputs)
	var sum float64
	for i, b := range best {
		for _, w := range b {
			fleetS[i] += w
		}
		sum += fleetS[i]
	}
	rate := float64(r.inputs) * float64(r.clients) * r.duration / sum
	m := out.metrics
	m.put("setup_s", quantile(setups, 0.5), "s")
	m.put("client_sim_s_per_s", rate, "s/s")
	m.put("reports_per_s", rate/csiPeriod, "1/s")
	m.put("peak_rss_mb", peakRSSMB(), "MB")
	_, _ = fmt.Fprintf(p.log, "rounds=%d over %d inputs, %d timed pieces a round; best fleet_s=%.3f\n", k, r.inputs, len(best[0]), fleetS)
	return out, nil
}

// tracedRun pairs an untraced sim call with the traced driver on the
// same seed, alternating which goes first, until the measuring time is
// spent. The traced result must match the untraced one digest for digest.
func (r simRun) tracedRun(p params) (outcome, error) {
	out := newOutcome()
	tr := newTracer()
	var lc layerCounts
	var rt runtimeDelta
	var untracedNs, tracedNs int64
	start := nanotime()
	for k := 0; k == 0 || secondsSince(start) < p.seconds; k++ {
		seed := subSeed(p.seed, k)
		var ures, tres sim.FleetResult
		var tbad []string
		untraced := func() error {
			r0 := readRuntime()
			t0 := nanotime()
			res, err := r.fleet(seed)
			untracedNs += nanotime() - t0
			rt.add(r0, readRuntime())
			ures = res
			return err
		}
		traced := func() error {
			t0 := nanotime()
			res, ktr, klc, bad, err := r.traced(seed)
			tracedNs += nanotime() - t0
			if err != nil {
				return err
			}
			tres, tbad = res, bad
			tr.merge(ktr)
			lc.merge(klc)
			return nil
		}
		first, second := untraced, traced
		if k%2 == 1 {
			first, second = traced, untraced
		}
		if err := first(); err != nil {
			return out, err
		}
		if err := second(); err != nil {
			return out, err
		}
		out.attempted += 2 * r.clients
		out.fail(p.log, checkFleet(ures, r.clients, r.duration))
		out.fail(p.log, checkFleet(tres, r.clients, r.duration))
		out.fail(p.log, tbad)
		ud, td := digest(ures), digest(tres)
		_, _ = fmt.Fprintf(p.log, "digest seed=%d untraced=%016x traced=%016x\n", seed, ud, td)
		if ud != td {
			out.fail(p.log, []string{fmt.Sprintf("seed %d: traced result differs from sim", seed)})
		}
	}

	eff := 0.0
	if r.jobs > 0 {
		eff = ratio(float64(tr.busyNs), float64(r.jobs)*float64(tracedNs))
	}
	// The untraced calls ran the same inputs as the traced ones.
	putLayers(out.metrics, tr, float64(tracedNs)/float64(untracedNs)-1, lc, ctlPass{}, eff)
	rt.put(out.metrics, lc.clientSimS, lc.clientSimS/csiPeriod)
	return out, nil
}
