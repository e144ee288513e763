package sim

import (
	"mobiwlan/internal/mobility"
	"mobiwlan/internal/obs"
	"mobiwlan/internal/parallel"
	"mobiwlan/internal/roaming"
	"mobiwlan/internal/stats"
)

// fleetTrialBase keys fleet clients' tracers when FleetOptions.TrialBase
// is zero. It sits above every base in internal/experiments (1M–5M), so a
// fleet can share an obs.Scope with experiment runs without key
// collisions.
const fleetTrialBase = 6_000_000

// FleetOptions configures RunWLANFleet, the multi-client scale harness: N
// independent clients, each walking its own scenario against the shared
// AP plan, sharded over internal/parallel.
type FleetOptions struct {
	// Clients is the number of independent clients to simulate.
	Clients int
	// Jobs is the worker count (0 means parallel.DefaultJobs(), one per
	// GOMAXPROCS). Results are byte-identical for any value — per-client
	// state derives only from the fleet seed and the client index.
	Jobs int
	// MotionAware selects the protocol stack for every client, as in
	// WLANOptions.
	MotionAware bool
	// Duration overrides the per-client scenario length in seconds; 0
	// keeps the scene default.
	Duration float64
	// Obs, when non-nil, collects fleet, classifier, MAC, rate-control,
	// and handoff telemetry across all clients; TrialBase keys the
	// per-client tracers (client i uses TrialBase+i; 0 means the fleet
	// default base, disjoint from the experiment bases).
	Obs       *obs.Scope
	TrialBase int

	// Contend routes every frame through one shared medium (CSMA/CA
	// deferral/backoff/collisions plus co-channel OBSS interference)
	// instead of giving each client the spectrum to itself. One goroutine
	// arbitrates the medium in a fixed event order while up to Jobs
	// goroutines run the granted clients' steps, so output stays
	// byte-identical at any Jobs value.
	Contend bool
	// Plan overrides the AP deployment for contended runs. Empty means a
	// grid of APs AP positions from roaming.GridPlan.
	Plan roaming.Plan
	// APs sizes the generated grid plan when Plan is empty (default 6,
	// the Fig. 13 floor).
	APs int
	// NumChannels spreads APs over this many channels, round-robin in AP
	// index order (default 3, the usual 5 GHz reuse-3 layout).
	NumChannels int
	// CSRangeM is the AP-to-AP carrier-sense range in meters; co-channel
	// APs farther apart transmit concurrently and interfere (default 25).
	CSRangeM float64
	// MaxAPs caps how many nearby APs each contended client simulates
	// links against (0 means all — quadratic in fleet size for grid
	// plans, so large fleets should set a small cap).
	MaxAPs int
}

// ClientResult is one fleet client's outcome.
type ClientResult struct {
	// Client is the client index within the fleet.
	Client int
	// Mode is the ground-truth mobility class the client was assigned.
	Mode mobility.Mode
	WLANResult
}

// FleetResult aggregates a fleet run.
type FleetResult struct {
	// PerClient holds each client's result, in client order.
	PerClient []ClientResult
	// Names holds per-client display names in client order; nil for the
	// round-robin fleet, set by scenario-driven runs.
	Names []string
	// TotalMbps sums goodput over all clients; MeanMbps divides by the
	// fleet size.
	TotalMbps, MeanMbps float64
	// Handoffs and Scans sum the per-client counts.
	Handoffs, Scans int
	// Contend holds the shared-medium accounting; nil for uncontended
	// runs.
	Contend *ContendStats
}

// finish computes the fleet aggregates from the per-client results.
func (r *FleetResult) finish() {
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

// RunWLANFleet simulates opt.Clients independent clients against the
// shared AP plan. Mobility modes are assigned round-robin over the four
// ground-truth classes, so a fleet mixes static, environmental, micro and
// macro clients the way a building does. Each client's scenario and
// simulation seed derive from Split(seed, client index) alone, so results
// are byte-identical for any Jobs value (the repo's RNG-split/trial-key
// determinism contract).
func RunWLANFleet(opt FleetOptions, seed uint64) FleetResult {
	if opt.Contend {
		return runWLANFleetContended(opt, seed)
	}
	n := opt.Clients
	res := FleetResult{}
	if n <= 0 {
		return res
	}
	jobs := opt.Jobs
	if jobs <= 0 {
		jobs = parallel.DefaultJobs()
	}
	trialBase := opt.TrialBase
	if trialBase == 0 {
		trialBase = fleetTrialBase
	}
	clients := opt.Obs.Registry().Counter("sim.fleet.clients")

	res.PerClient = parallel.RunTrials(n, jobs, func(i int) ClientResult {
		base := stats.NewRNG(seed).Split(uint64(i) + 1)
		mode := mobility.AllModes[i%len(mobility.AllModes)]
		scfg := mobility.DefaultSceneConfig()
		if opt.Duration > 0 {
			scfg.Duration = opt.Duration
		}
		scen := mobility.NewScenario(mode, scfg, base.Split(1))
		w := DefaultWLANOptions(opt.MotionAware)
		w.Obs = opt.Obs
		w.Trial = trialBase + i
		r := RunWLAN(scen, w, base.Split(2).Uint64())
		clients.Inc()
		return ClientResult{Client: i, Mode: mode, WLANResult: r}
	})
	res.finish()
	return res
}
