package sim

import (
	"mobiwlan/internal/mobility"
	"mobiwlan/internal/obs"
	"mobiwlan/internal/parallel"
	"mobiwlan/internal/roaming"
	"mobiwlan/internal/scenario"
)

// fleetTrialBase keys fleet clients' tracers when FleetOptions.TrialBase
// is zero. It sits above every base in internal/experiments (1M–5M), so a
// fleet can share an obs.Scope with experiment runs without key
// collisions.
const fleetTrialBase = 6_000_000

// FleetOptions configures RunScenarioFleet and RunWLANFleet, the
// multi-client scale harness: N independent clients, each walking its own
// scenario against the shared AP plan, sharded over internal/parallel.
type FleetOptions struct {
	// Clients is the number of independent clients RunWLANFleet
	// simulates; RunScenarioFleet takes its clients from the spec.
	Clients int
	// Jobs is the worker count (0 means parallel.DefaultJobs(), one per
	// GOMAXPROCS). Results are byte-identical for any value — per-client
	// state derives only from the fleet seed and the client index.
	Jobs int
	// MotionAware selects the protocol stack for every RunWLANFleet
	// client, as in WLANOptions.
	MotionAware bool
	// Duration overrides RunWLANFleet's per-client scenario length in
	// seconds; 0 keeps the scene default.
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
// shared AP plan: it runs scenario.RoundRobin's spec through
// RunScenarioFleet. Mobility modes are assigned round-robin over the four
// ground-truth classes, so a fleet mixes static, environmental, micro and
// macro clients the way a building does. Each client's scenario and
// simulation seed derive from Split(seed, client index) alone, so results
// are byte-identical for any Jobs value (the repo's RNG-split/trial-key
// determinism contract). Names is nil: round-robin clients are known by
// index.
func RunWLANFleet(opt FleetOptions, seed uint64) FleetResult {
	// A round-robin spec pins no home AP, so Build cannot fail.
	res, _ := RunScenarioFleet(scenario.RoundRobin(opt.Clients, opt.Duration, opt.MotionAware), opt, seed)
	res.Names = nil
	return res
}

// RunScenarioFleet simulates the clients of a scenario spec, parsed from a
// file or generated (scenario.RoundRobin). The spec decides the client
// mix, trajectory models, speeds, start times, home APs and protocol
// stacks; opt keeps the harness knobs (Jobs, Obs, TrialBase, the
// contention switches). The spec is authoritative: opt.Clients,
// opt.Duration and opt.MotionAware are ignored.
//
// Determinism matches the fleet contract: scenario.Build derives every
// client's randomness from Split(seed, client index) alone, the
// uncontended path shards with parallel.RunTrials, and the contended path
// steps clients on up to Jobs goroutines while issuing every medium
// reservation in the serial order, so results are byte-identical at any
// Jobs value.
func RunScenarioFleet(spec *scenario.Spec, opt FleetOptions, seed uint64) (FleetResult, error) {
	var plan roaming.Plan
	var channels []int
	if opt.Contend {
		plan, channels = contendPlan(opt)
	}
	clients, err := scenario.Build(spec, plan.APs, seed)
	if err != nil {
		return FleetResult{}, err
	}
	names := clientNames(clients)
	if len(clients) == 0 {
		return FleetResult{Names: names}, nil
	}
	setups := fleetSetups(clients, opt, plan)
	var res FleetResult
	if opt.Contend {
		res = runContendedSetups(opt, plan, channels, setups)
	} else {
		jobs := opt.Jobs
		if jobs <= 0 {
			jobs = parallel.DefaultJobs()
		}
		clientsMet := opt.Obs.Registry().Counter("sim.fleet.clients")
		res.PerClient = parallel.RunTrials(len(setups), jobs, func(i int) ClientResult {
			s := setups[i]
			r := RunWLAN(s.scen, s.w, s.seed)
			clientsMet.Inc()
			return ClientResult{Client: i, Mode: s.mode, WLANResult: r}
		})
		res.finish()
	}
	res.Names = names
	return res, nil
}

// fleetClient is one prebuilt fleet client: everything RunWLAN or the
// shared-medium event loop needs to simulate it.
type fleetClient struct {
	scen *mobility.Scenario
	w    WLANOptions
	seed uint64
	// apIdx holds the global indices of the APs in w.Plan; nil when the
	// run is uncontended.
	apIdx []int
	mode  mobility.Mode
}

// fleetSetups turns built clients into runner inputs: each client's WLAN
// options and trial key (opt.TrialBase, or the fleet default, plus the
// client index) and, when the run is contended, the sub-plan of the
// opt.MaxAPs APs nearest its home AP. MaxAPs > 0 restricts each client's
// simulated links to its nearest APs; link RNG splits are keyed by global
// AP index, so the restriction never changes the channel randomness of
// the APs that remain.
func fleetSetups(clients []scenario.Client, opt FleetOptions, plan roaming.Plan) []fleetClient {
	trialBase := opt.TrialBase
	if trialBase == 0 {
		trialBase = fleetTrialBase
	}
	setups := make([]fleetClient, len(clients))
	for i, bc := range clients {
		s := fleetClient{scen: bc.Scen, w: DefaultWLANOptions(bc.MotionAware), seed: bc.SimSeed, mode: bc.Mode}
		s.w.Obs = opt.Obs
		s.w.Trial = trialBase + i
		if opt.Contend {
			s.w.Plan, s.apIdx = subPlanFor(plan, bc.HomeAP, opt.MaxAPs)
		}
		setups[i] = s
	}
	return setups
}

// clientNames collects display names in client order.
func clientNames(clients []scenario.Client) []string {
	names := make([]string, len(clients))
	for i, c := range clients {
		names[i] = c.Name
	}
	return names
}
