package sim

import (
	"sync"

	"mobiwlan/internal/channel"
	"mobiwlan/internal/core"
	"mobiwlan/internal/csi"
	"mobiwlan/internal/mobility"
	"mobiwlan/internal/obs"
	"mobiwlan/internal/parallel"
	"mobiwlan/internal/stats"
	"mobiwlan/internal/tof"
)

// SharedFleetOptions configures RunSharedFleet, the shared-scene
// measurement-plane sweep: N clients inhabit ONE building (one scatterer
// population, mobility.NewSharedScenarios), and every tick each client's
// CSI/ToF observations feed its own classifier. Because all clients
// measure at the same lockstep instants, the client-independent half of
// the channel geometry — scatterer positions and AP-side antenna legs —
// is evaluated once per tick (channel.SharedGeometry) instead of once per
// client per tick.
type SharedFleetOptions struct {
	// Clients is the fleet size.
	Clients int
	// Jobs is the worker count (0 means parallel.DefaultJobs()). The stepper shards
	// clients over persistent workers; results are byte-identical for any
	// value — per-client state derives only from the fleet seed and the
	// client index, and the shared geometry is primed serially between
	// ticks.
	Jobs int
	// Duration overrides the scenario length in seconds; 0 keeps the
	// scene default.
	Duration float64
	// DisableShared turns off the per-tick geometry sharing so every
	// client re-derives scatterer positions itself — the reference the
	// equivalence test compares against, and the benchmark baseline.
	// Results are bit-identical either way.
	DisableShared bool
	// Obs, when non-nil, collects fleet counters.
	Obs *obs.Scope
}

// SharedClientResult is one sweep client's classification outcome.
type SharedClientResult struct {
	// Client is the client index within the fleet.
	Client int
	// Mode is the ground-truth mobility class the client was assigned.
	Mode mobility.Mode
	// Correct and Ticks count post-warmup ticks where the classifier's
	// mode matched the ground truth, and all post-warmup ticks.
	Correct, Ticks int
	// FinalState is the classifier state at the end of the run.
	FinalState core.State
}

// SharedFleetResult aggregates a shared-scene sweep.
type SharedFleetResult struct {
	// PerClient holds each client's outcome, in client order.
	PerClient []SharedClientResult
	// Accuracy is the fleet-wide post-warmup mode accuracy.
	Accuracy float64
	// Ticks is the number of lockstep measurement ticks simulated.
	Ticks int
}

// sweepWarmup is how long (seconds) classification outcomes are excluded
// from accuracy: the classifier needs a similarity window before its
// state means anything.
const sweepWarmup = 3.0

// sweepClient is one client's measurement-plane state: channel model
// (attached to the shared geometry), classifier, ToF meter, and reusable
// buffers. Each client is stepped only by its owning worker shard.
type sweepClient struct {
	scen    *mobility.Scenario
	model   *channel.Model
	cls     *core.Classifier
	meter   *tof.Meter
	buf     *csi.Matrix
	nextToF float64
	res     SharedClientResult
}

// step advances one client through the tick at time t: a CSI measurement
// on the shared instant, ToF catch-up at its own cadence, and a
// classification outcome sample once past warmup.
func (c *sweepClient) step(t float64) {
	s := c.model.MeasureInto(t, c.buf)
	c.buf = s.CSI
	c.cls.ObserveCSI(t, s.CSI)
	for c.nextToF <= t {
		if c.cls.ToFActive() {
			c.cls.ObserveToF(c.nextToF, c.meter.Raw(c.model.Distance(c.nextToF)))
		}
		c.nextToF += 0.02
	}
	if t >= sweepWarmup {
		mode, _ := c.scen.GroundTruth(t)
		c.res.Ticks++
		if c.cls.State().Mode() == mode {
			c.res.Correct++
		}
	}
}

// RunSharedFleet runs the shared-scene fleet sweep: one scatterer
// population, N clients, lockstep ticks at the classifier's CSI cadence.
// Per tick the stepper primes the shared geometry once (serially), then
// persistent workers step disjoint client shards concurrently; per-client
// state never crosses shards and aggregation reads client order, so the
// output is byte-identical at any Jobs value, and bit-identical with
// sharing disabled (channel.SharedGeometry memoizes pure functions).
func RunSharedFleet(opt SharedFleetOptions, seed uint64) SharedFleetResult {
	res := SharedFleetResult{}
	n := opt.Clients
	if n <= 0 {
		return res
	}
	jobs := opt.Jobs
	if jobs <= 0 {
		jobs = parallel.DefaultJobs()
	}
	if jobs > n {
		jobs = n
	}

	base := stats.NewRNG(seed)
	scfg := mobility.DefaultSceneConfig()
	if opt.Duration > 0 {
		scfg.Duration = opt.Duration
	}
	scens := mobility.NewSharedScenarios(n, scfg, base.Split(0x7363656e)) // "scen"
	cfg := channel.DefaultConfig()
	geo := channel.NewSharedGeometry(cfg, scfg.AP, scens[0].Scatterers)

	clients := make([]*sweepClient, n)
	for i := range clients {
		c := &sweepClient{
			scen:  scens[i],
			model: channel.New(cfg, scens[i], base.Split(uint64(i)+1)),
			cls:   core.New(core.DefaultConfig()),
			meter: tof.NewMeter(tof.DefaultConfig(), base.Split(0x746f66_000+uint64(i))), // "tof"
		}
		c.res = SharedClientResult{Client: i, Mode: scens[i].Label}
		if !opt.DisableShared {
			c.model.AttachShared(geo)
		}
		clients[i] = c
	}

	// Persistent worker shards: each goroutine owns a contiguous client
	// range for the whole run, released once per tick and joined before
	// the next Prime.
	var wg sync.WaitGroup
	ticks := make([]chan float64, jobs)
	for w := 0; w < jobs; w++ {
		ticks[w] = make(chan float64, 1)
		lo := w * n / jobs
		hi := (w + 1) * n / jobs
		go func(ch <-chan float64, lo, hi int) {
			for t := range ch {
				for i := lo; i < hi; i++ {
					clients[i].step(t)
				}
				wg.Done()
			}
		}(ticks[w], lo, hi)
	}

	period := core.DefaultConfig().CSISamplePeriod
	for t := 0.0; t < scfg.Duration; t += period {
		if !opt.DisableShared {
			geo.Prime(t)
		}
		wg.Add(jobs)
		for _, ch := range ticks {
			ch <- t
		}
		wg.Wait()
		res.Ticks++
	}
	for _, ch := range ticks {
		close(ch)
	}

	res.PerClient = make([]SharedClientResult, n)
	correct, total := 0, 0
	for i, c := range clients {
		c.res.FinalState = c.cls.State()
		res.PerClient[i] = c.res
		correct += c.res.Correct
		total += c.res.Ticks
	}
	if total > 0 {
		res.Accuracy = float64(correct) / float64(total)
	}
	opt.Obs.Registry().Counter("sim.sharedfleet.clients").Add(uint64(n))
	return res
}
