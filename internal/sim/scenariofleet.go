package sim

import (
	"mobiwlan/internal/parallel"
	"mobiwlan/internal/scenario"
)

// RunScenarioFleet simulates the clients of a parsed scenario spec — the
// declarative counterpart of RunWLANFleet's round-robin fleet. The spec
// decides the client mix, trajectory models, speeds, start times, and home
// APs; opt keeps the harness knobs (Jobs, Obs, the contention switches).
// The spec's duration is authoritative: opt.Duration is ignored.
//
// Determinism matches the fleet contract: scenario.Build derives every
// client's randomness from Split(seed, client index) alone, the
// uncontended path shards with parallel.RunTrials, and the contended path
// steps clients on up to Jobs goroutines while issuing every medium
// reservation in the serial order, so results are byte-identical at any
// Jobs value.
func RunScenarioFleet(spec *scenario.Spec, opt FleetOptions, seed uint64) (FleetResult, error) {
	opt.Clients = spec.Total
	trialBase := opt.TrialBase
	if trialBase == 0 {
		trialBase = fleetTrialBase
	}
	if opt.Contend {
		return runScenarioFleetContended(spec, opt, trialBase, seed)
	}

	clients, err := scenario.Build(spec, nil, seed)
	if err != nil {
		return FleetResult{}, err
	}
	res := FleetResult{Names: clientNames(clients)}
	n := len(clients)
	if n == 0 {
		return res, nil
	}
	jobs := opt.Jobs
	if jobs <= 0 {
		jobs = parallel.DefaultJobs()
	}
	clientsMet := opt.Obs.Registry().Counter("sim.fleet.clients")

	res.PerClient = parallel.RunTrials(n, jobs, func(i int) ClientResult {
		bc := clients[i]
		w := DefaultWLANOptions(bc.MotionAware)
		w.Obs = opt.Obs
		w.Trial = trialBase + i
		r := RunWLAN(bc.Scen, w, bc.SimSeed)
		clientsMet.Inc()
		return ClientResult{Client: i, Mode: bc.Mode, WLANResult: r}
	})
	res.finish()
	return res, nil
}

// runScenarioFleetContended drives the spec's clients through one shared
// medium. Build homes each client to its effective AP (pinned by home_ap
// or assigned round-robin) and translates its scene accordingly; the event
// loop is the one the round-robin contended fleet uses.
func runScenarioFleetContended(spec *scenario.Spec, opt FleetOptions, trialBase int, seed uint64) (FleetResult, error) {
	plan, channels := contendPlan(opt)
	clients, err := scenario.Build(spec, plan.APs, seed)
	if err != nil {
		return FleetResult{}, err
	}
	setups := make([]contendSetup, len(clients))
	for i, bc := range clients {
		sub, apIdx := subPlanFor(plan, bc.HomeAP, opt.MaxAPs)
		w := DefaultWLANOptions(bc.MotionAware)
		w.Plan = sub
		w.Obs = opt.Obs
		w.Trial = trialBase + i
		setups[i] = contendSetup{
			scen: bc.Scen, w: w, seed: bc.SimSeed, apIdx: apIdx, mode: bc.Mode,
		}
	}
	res := runContendedSetups(opt, plan, channels, setups)
	res.Names = clientNames(clients)
	return res, nil
}

// clientNames collects display names in client order.
func clientNames(clients []scenario.Client) []string {
	names := make([]string, len(clients))
	for i, c := range clients {
		names[i] = c.Name
	}
	return names
}
