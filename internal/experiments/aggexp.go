package experiments

import (
	"fmt"

	"mobiwlan/internal/aggregation"
	"mobiwlan/internal/geom"
	"mobiwlan/internal/mobility"
	"mobiwlan/internal/parallel"
	"mobiwlan/internal/sim"
	"mobiwlan/internal/stats"
	"mobiwlan/internal/transport"
)

func init() {
	register("fig10a", Figure10a)
	register("fig10b", Figure10b)
}

// aggLinkOptions builds a link configuration with a specific aggregation
// policy and the stock RA (to isolate the aggregation effect) at a
// moderate operating point.
func aggLinkOptions(pol aggregation.Policy, states sim.StateSource) sim.LinkOptions {
	opt := sim.DefaultLinkOptions()
	opt.Agg = pol
	opt.States = states
	// Moderate link budget: aggregation aging matters when the chosen
	// rate has little SNR slack, which is where rate control operates.
	opt.Channel.TxPowerDBm = 8
	return opt
}

// Figure10a reproduces mean throughput versus the aggregation-time limit
// (2/4/8 ms) for each mobility mode: stable channels want the largest
// aggregates, mobile channels collapse under them.
func Figure10a(cfg Config) Result {
	runs := cfg.scaleInt(6, 3)
	dur := cfg.scaleDur(12, 6)
	limits := []float64{2e-3, 4e-3, 8e-3}
	var series []stats.Series
	notes := []string{}
	for vi, mode := range mobility.AllModes {
		rng := cfg.rng(uint64(vi) + 1000)
		var pts []stats.Point
		for _, limit := range limits {
			all := parallel.RunTrials(runs, cfg.jobs(), func(r int) float64 {
				scen := sceneFor(mode, r, dur, 1, rng.Split(uint64(r)))
				opt := aggLinkOptions(aggregation.Fixed{Limit: limit}, sim.Oblivious)
				return sim.RunLink(scen, opt, cfg.Seed+uint64(vi)*37+uint64(r)).Mbps
			})
			pts = append(pts, stats.Point{X: limit * 1000, Y: stats.Mean(all)})
		}
		series = append(series, stats.Series{Name: mode.String(), Points: pts})
		notes = append(notes, fmt.Sprintf("%s: 2ms=%.1f 4ms=%.1f 8ms=%.1f Mbps",
			mode, pts[0].Y, pts[1].Y, pts[2].Y))
	}
	res := Result{
		ID:     "fig10a",
		Title:  "Figure 10(a): mean throughput vs frame aggregation time limit, per mobility mode",
		XLabel: "agg-limit(ms)",
		Series: series,
		Notes:  notes,
	}
	res.Text = renderSeries(res.Title, res.XLabel, series)
	return res
}

// phasedLinkScenario reproduces the paper's per-link methodology: "at
// each location we subjected the client to various mobility modes" — the
// client sits still for the first third of the run, fidgets with the
// device for the second, then walks away from the AP. A policy that adapts
// within the run (the classifier-driven one) can win every phase; any
// fixed choice loses at least one.
func phasedLinkScenario(idx int, duration float64, rng *stats.RNG) *mobility.Scenario {
	cfg := mobility.DefaultSceneConfig()
	cfg.Duration = duration
	scen := mobility.NewScenario(mobility.Static, cfg, rng.Split(1))
	spotRNG := rng.Split(2)
	ang := spotRNG.Range(0, 2*3.14159265)
	spot := cfg.Bounds.ClampPoint(cfg.AP.Add(geom.FromPolar(spotRNG.Range(4, 8), ang)))
	corridor := cfg.Bounds.RayExit(spot, geom.FromPolar(1, ang))
	walkLen := cfg.WalkSpeed * duration / 3
	if walkLen > corridor-0.5 {
		walkLen = corridor - 0.5
	}
	if walkLen < 1 {
		walkLen = 1
	}
	far := spot.Add(geom.FromPolar(walkLen, ang))
	scen.Label = mobility.Macro // dominated by the walking phase
	scen.Client = mobility.Phased{Phases: []mobility.Phase{
		{Until: duration / 3, Traj: mobility.Fixed(spot)},
		{Until: 2 * duration / 3, Traj: mobility.NewConfinedJitter(spot, cfg.MicroRadius, 0.7, rng.Split(3))},
		{Until: duration, Traj: mobility.WaypointWalk{Path: geom.NewPath(spot, far), Speed: cfg.WalkSpeed}},
	}}
	return scen
}

// Figure10b reproduces the CDF comparison of fixed 8 ms, fixed 4 ms
// (stock) and the mobility-adaptive aggregation policy over links whose
// clients move through different mobility modes, with TCP traffic.
func Figure10b(cfg Config) Result {
	links := cfg.scaleInt(15, 4)
	dur := cfg.scaleDur(16, 8)
	rng := cfg.rng(1010)

	type policyCase struct {
		name string
		mk   func() sim.LinkOptions
	}
	cases := []policyCase{
		{"fixed-8ms", func() sim.LinkOptions { return aggLinkOptions(aggregation.Fixed{Limit: 8e-3}, sim.Oblivious) }},
		{"fixed-4ms", func() sim.LinkOptions { return aggLinkOptions(aggregation.Fixed{Limit: 4e-3}, sim.Oblivious) }},
		{"adaptive", func() sim.LinkOptions { return aggLinkOptions(aggregation.Adaptive{}, sim.Classifier) }},
	}
	// Each link cycles through static, micro and walking phases, as in
	// the paper's per-location methodology; every policy sees the same
	// phased channel.
	medians := map[string]float64{}
	var series []stats.Series
	for _, pc := range cases {
		all := parallel.RunTrials(links, cfg.jobs(), func(l int) float64 {
			scen := phasedLinkScenario(l, dur, rng.Split(uint64(l)))
			opt := pc.mk()
			opt.Channel.TxPowerDBm = 2 // cell-edge links, where aggregates age
			opt.Source = transport.NewTCPReno(1500)
			return sim.RunLink(scen, opt, cfg.Seed+uint64(l)).Mbps
		})
		medians[pc.name] = stats.Median(all)
		series = append(series, stats.CDFSeries(pc.name, all, 25))
	}
	res := Result{
		ID:     "fig10b",
		Title:  "Figure 10(b): CDF of TCP throughput under fixed vs mobility-adaptive aggregation",
		XLabel: "Mbps",
		Series: series,
	}
	res.Text = renderSeries(res.Title, res.XLabel, series)
	for _, k := range sortedKeys(medians) {
		res.Notes = append(res.Notes, fmt.Sprintf("median %s = %.1f Mbps", k, medians[k]))
	}
	if d, a := medians["fixed-4ms"], medians["adaptive"]; d > 0 {
		res.Notes = append(res.Notes, fmt.Sprintf(
			"adaptive over stock 4 ms: %+.1f%% (paper: ~15%% median)", 100*(a/d-1)))
	}
	return res
}
