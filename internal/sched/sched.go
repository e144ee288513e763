// Package sched implements single-AP multi-client downlink scheduling and
// the mobility-aware scheduler the paper sketches as future work (§9:
// "scheduling client traffic at an AP taking movement into account").
//
// The insight mirrors the roaming result: a client walking away from the
// AP has a channel that will only get worse, so its queue should be
// drained NOW; a client walking toward the AP can be deferred cheaply
// because its channel is improving; static clients are time-insensitive.
// The mobility-aware policy weights clients accordingly, on top of a
// rate-proportional opportunistic score.
package sched

import (
	"mobiwlan/internal/aggregation"
	"mobiwlan/internal/core"
	"mobiwlan/internal/mac"
	"mobiwlan/internal/ratecontrol"
	"mobiwlan/internal/stats"
)

// Client is one downlink destination at the AP.
type Client struct {
	// Link is the MAC/PHY to this client.
	Link *mac.Link
	// Adapter is the client's rate-control state.
	Adapter ratecontrol.Adapter
	// StateAt supplies the client's mobility state over time (classifier
	// output or ground truth); nil means always unknown.
	StateAt func(t float64) core.State
}

// View is the scheduler-visible summary of one client.
type View struct {
	// Index identifies the client.
	Index int
	// State is the client's current mobility state.
	State core.State
	// RecentMbps is an EWMA of the client's recent delivered rate.
	RecentMbps float64
	// AirtimeShare is the fraction of airtime this client has consumed.
	AirtimeShare float64
}

// Policy picks the next client to serve.
type Policy interface {
	// Name identifies the policy in experiment output.
	Name() string
	// Pick returns the index of the client to serve at time t.
	Pick(t float64, views []View) int
}

// RoundRobin cycles through clients.
type RoundRobin struct {
	next int
}

// Name implements Policy.
func (r *RoundRobin) Name() string { return "round-robin" }

// Pick implements Policy.
func (r *RoundRobin) Pick(_ float64, views []View) int {
	i := r.next % len(views)
	r.next++
	return i
}

// AirtimeFair serves the client with the smallest airtime share —
// the 802.11 airtime-fairness ideal.
type AirtimeFair struct{}

// Name implements Policy.
func (AirtimeFair) Name() string { return "airtime-fair" }

// Pick implements Policy.
func (AirtimeFair) Pick(_ float64, views []View) int {
	best, bestShare := 0, 2.0
	for _, v := range views {
		if v.AirtimeShare < bestShare {
			best, bestShare = v.Index, v.AirtimeShare
		}
	}
	return best
}

// MobilityAware scores clients by recent rate weighted by a per-state
// urgency: macro-away clients are drained before their channel collapses,
// macro-toward clients wait for their channel to improve. Every one of n
// clients is guaranteed 1/(2n) of the airtime, so opportunism never
// becomes starvation.
type MobilityAware struct{}

// urgency is the §9-inspired scheduling weight per mobility state;
// missing states weigh 1.
var urgency = map[core.State]float64{
	core.StateMacroAway:   1.6,
	core.StateMacroToward: 0.6,
	core.StateMacroOrbit:  1.0,
}

// Name implements Policy.
func (MobilityAware) Name() string { return "mobility-aware" }

// Pick implements Policy.
func (MobilityAware) Pick(_ float64, views []View) int {
	// Airtime floor: any client below 1/(2n) is served first (most
	// starved wins), guaranteeing bounded delay for everyone.
	starved, starvedShare := -1, 1/(2*float64(len(views)))
	for _, v := range views {
		if v.AirtimeShare < starvedShare {
			starved, starvedShare = v.Index, v.AirtimeShare
		}
	}
	if starved >= 0 {
		return starved
	}
	best, bestScore := 0, -1.0
	for _, v := range views {
		w := 1.0
		if u, ok := urgency[v.State]; ok {
			w = u
		}
		// Rate-weighted urgency with a mild airtime correction.
		score := (v.RecentMbps + 1) * w * (1.2 - v.AirtimeShare)
		if score > bestScore {
			best, bestScore = v.Index, score
		}
	}
	return best
}

// Result summarizes a scheduling run.
type Result struct {
	// PerClientMbps is each client's delivered goodput.
	PerClientMbps []float64
	// TotalMbps is the cell throughput.
	TotalMbps float64
	// JainFairness is Jain's index over per-client throughputs (1 = equal).
	JainFairness float64
}

// Run schedules saturated downlink traffic to the clients for duration
// seconds under the policy, with mobility-adaptive aggregation.
func Run(clients []Client, pol Policy, agg aggregation.Policy, duration float64) Result {
	n := len(clients)
	res := Result{PerClientMbps: make([]float64, n)}
	if n == 0 {
		return res
	}
	if agg == nil {
		agg = aggregation.Fixed{Limit: 4e-3}
	}
	bits := make([]float64, n)
	airtime := make([]float64, n)
	recent := make([]*stats.EWMA, n)
	for i := range recent {
		recent[i] = stats.NewEWMA(0.1)
	}
	views := make([]View, n)

	t := 0.0
	var totalAir float64
	for t < duration {
		for i, c := range clients {
			state := core.StateUnknown
			if c.StateAt != nil {
				state = c.StateAt(t)
			}
			share := 0.0
			if totalAir > 0 {
				share = airtime[i] / totalAir
			}
			views[i] = View{
				Index:        i,
				State:        state,
				RecentMbps:   recent[i].Value(),
				AirtimeShare: share,
			}
		}
		pick := pol.Pick(t, views)
		if pick < 0 || pick >= n {
			pick = 0
		}
		c := clients[pick]
		state := views[pick].State
		if sa, ok := c.Adapter.(ratecontrol.StateAware); ok {
			sa.SetState(state)
		}
		mcs := c.Adapter.SelectRate(t)
		nMPDU := aggregation.MPDUs(agg, state, mcs, c.Link.Width, c.Link.SGI, c.Link.MPDUBytes)
		fr := c.Link.Transmit(t, mcs, nMPDU)
		c.Adapter.OnResult(t+fr.Airtime, fr)
		bits[pick] += fr.Goodput(c.Link.MPDUBytes)
		airtime[pick] += fr.Airtime
		totalAir += fr.Airtime
		recent[pick].Update(fr.Goodput(c.Link.MPDUBytes) / fr.Airtime / 1e6)
		t += fr.Airtime
	}

	var sum, sumSq float64
	for i := range clients {
		res.PerClientMbps[i] = bits[i] / duration / 1e6
		sum += res.PerClientMbps[i]
		sumSq += res.PerClientMbps[i] * res.PerClientMbps[i]
	}
	res.TotalMbps = sum
	if sumSq > 0 {
		res.JainFairness = sum * sum / (float64(n) * sumSq)
	}
	return res
}
