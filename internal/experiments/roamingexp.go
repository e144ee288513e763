package experiments

import (
	"fmt"

	"mobiwlan/internal/channel"
	"mobiwlan/internal/csi"
	"mobiwlan/internal/geom"
	"mobiwlan/internal/mobility"
	"mobiwlan/internal/parallel"
	"mobiwlan/internal/phy"
	"mobiwlan/internal/roaming"
	"mobiwlan/internal/sim"
	"mobiwlan/internal/stats"
)

func init() {
	register("fig7a", Figure7a)
	register("fig7b", Figure7b)
}

// modeVariant labels the five mobility variants used by the roaming and
// rate-control studies (macro split by heading).
type modeVariant struct {
	name    string
	mode    mobility.Mode
	heading mobility.Heading
}

var fiveVariants = []modeVariant{
	{"static", mobility.Static, mobility.HeadingNone},
	{"environmental", mobility.Environmental, mobility.HeadingNone},
	{"micro", mobility.Micro, mobility.HeadingNone},
	{"macro-toward", mobility.Macro, mobility.HeadingToward},
	{"macro-away", mobility.Macro, mobility.HeadingAway},
}

// variantScene builds a scenario for a variant; macro headings are
// measured relative to the AP the client associates with (the scenario
// AP), which the roaming plan places at the nearest plan AP.
func variantScene(v modeVariant, idx int, duration float64, rng *stats.RNG) *mobility.Scenario {
	cfg := mobility.DefaultSceneConfig()
	cfg.Duration = duration
	if v.mode == mobility.Macro {
		return mobility.NewMacroScenario(v.heading, cfg, rng)
	}
	return mobility.NewScenario(v.mode, cfg, rng)
}

// fig7aScene builds a variant scenario anchored to one of the plan's
// APs — the client is *associated* with that AP (the paper's premise),
// so stationary variants sit inside its cell and macro headings are
// radial to it. It returns the scenario and the anchor AP index.
func fig7aScene(v modeVariant, plan roaming.Plan, idx int, duration float64, rng *stats.RNG) (*mobility.Scenario, int) {
	apIdx := idx % len(plan.APs)
	ap := plan.APs[apIdx]
	cfg := mobility.DefaultSceneConfig()
	cfg.Duration = duration
	cfg.AP = ap

	// In-cell spot for stationary variants: 3-7 m from the anchor AP.
	spotRNG := rng.Split(3)
	var spot geom.Point
	for i := 0; i < 32; i++ {
		spot = ap.Add(geom.FromPolar(spotRNG.Range(3, 7), spotRNG.Range(0, 2*3.14159265)))
		if cfg.Bounds.Contains(spot) {
			break
		}
	}
	spot = cfg.Bounds.ClampPoint(spot)

	switch v.mode {
	case mobility.Static:
		scen := mobility.NewScenario(mobility.Static, cfg, rng)
		scen.Client = mobility.Fixed(spot)
		return scen, apIdx
	case mobility.Environmental:
		scen := mobility.NewScenario(mobility.Environmental, cfg, rng)
		scen.Client = mobility.Fixed(spot)
		return scen, apIdx
	case mobility.Micro:
		scen := mobility.NewScenario(mobility.Micro, cfg, rng)
		scen.Client = mobility.NewConfinedJitter(spot, cfg.MicroRadius, 0.7, rng.Split(4))
		return scen, apIdx
	}

	// Macro: radial corridor around the anchor AP.
	scen := mobility.NewScenario(mobility.Static, cfg, rng.Split(1))
	scen.Label = mobility.Macro
	scen.Heading = v.heading
	walkLen := cfg.WalkSpeed * duration
	clientRNG := rng.Split(2)
	bestAngle, bestLen := 0.0, -1.0
	for i := 0; i < 32; i++ {
		ang := clientRNG.Range(0, 2*3.14159265)
		origin := ap.Add(geom.FromPolar(1.5, ang))
		if !cfg.Bounds.Contains(origin) {
			continue
		}
		corridor := cfg.Bounds.RayExit(origin, geom.FromPolar(1, ang)) - 0.5
		if corridor > bestLen {
			bestAngle, bestLen = ang, corridor
		}
		if corridor >= walkLen {
			break
		}
	}
	near := ap.Add(geom.FromPolar(1.5, bestAngle))
	length := walkLen
	if length > bestLen {
		length = bestLen
	}
	if length < 1 {
		length = 1
	}
	far := near.Add(geom.FromPolar(length, bestAngle))
	if v.heading == mobility.HeadingAway {
		scen.Client = mobility.WaypointWalk{Path: geom.NewPath(near, far), Speed: cfg.WalkSpeed}
	} else {
		// Toward: begin inside the anchor AP's cell (<= 6.5 m out) so the
		// association premise holds, and walk in.
		start := far
		if length > 6.5 {
			start = near.Add(geom.FromPolar(6.5, bestAngle))
		}
		scen.Client = mobility.WaypointWalk{Path: geom.NewPath(start, near), Speed: cfg.WalkSpeed}
	}
	return scen, apIdx
}

// Figure7a reproduces the CDFs of the throughput gain obtained by always
// using the momentarily strongest AP instead of sticking with the initial
// AP, per mobility variant. Only macro-away clients benefit — the paper's
// core roaming insight.
func Figure7a(cfg Config) Result {
	runs := cfg.scaleInt(20, 5)
	dur := cfg.scaleDur(20, 14)
	plan := roaming.DefaultPlan()
	maxStreams := phy.MaxStreams(plan.Channel.NTx, plan.Channel.NRx)
	var series []stats.Series
	medians := map[string]float64{}
	for vi, v := range fiveVariants {
		rng := cfg.rng(uint64(vi) + 700)
		gains := parallel.Flatten(
			parallel.RunTrials(runs, cfg.jobs(), func(r int) []float64 {
				// The client is associated with its anchor AP; heading is
				// relative to it (the paper's premise).
				scen, cur := fig7aScene(v, plan, r, dur, rng.Split(uint64(r)))
				links := make([]*channel.Model, len(plan.APs))
				for i, ap := range plan.APs {
					links[i] = channel.NewAt(plan.Channel, ap, scen, rng.Split(uint64(r)*100+uint64(i)+1))
				}
				var stick, dynamic float64
				var h *csi.Matrix
				for t := 0.0; t < dur; t += 0.5 {
					tputs := make([]float64, len(links))
					for i, l := range links {
						h = l.ResponseInto(t, h)
						tputs[i] = roaming.ExpectedThroughput(
							phy.EffectiveSNRdB(h, l.SNRdB(t)), maxStreams)
					}
					stick += tputs[cur]
					dynamic += stats.Max(tputs)
				}
				if stick > 0 {
					return []float64{100 * (dynamic - stick) / stick}
				}
				return nil
			}))
		medians[v.name] = stats.Median(gains)
		series = append(series, stats.CDFSeries(v.name, gains, 25))
	}
	res := Result{
		ID:     "fig7a",
		Title:  "Figure 7(a): CDF of throughput gain from switching to the strongest AP vs sticking",
		XLabel: "gain(%)",
		Series: series,
	}
	res.Text = renderSeries(res.Title, res.XLabel, series)
	for _, k := range sortedKeys(medians) {
		res.Notes = append(res.Notes, fmt.Sprintf("median switching gain %s = %.1f%%", k, medians[k]))
	}
	return res
}

// crossFloorWalks builds natural multi-AP walks for the roaming and
// overall evaluations: long ping-pong trajectories past several APs, with
// per-run random corridor choice.
func crossFloorWalks(n int, duration float64, rng *stats.RNG) []*mobility.Scenario {
	corridors := []geom.Path{
		geom.NewPath(geom.Pt(4, 7), geom.Pt(46, 7)),
		geom.NewPath(geom.Pt(4, 23), geom.Pt(46, 23)),
		geom.NewPath(geom.Pt(4, 7), geom.Pt(46, 7), geom.Pt(46, 23), geom.Pt(4, 23)),
		geom.NewPath(geom.Pt(8, 4), geom.Pt(8, 26), geom.Pt(42, 26), geom.Pt(42, 4)),
	}
	out := make([]*mobility.Scenario, 0, n)
	for i := 0; i < n; i++ {
		cfg := mobility.DefaultSceneConfig()
		cfg.Duration = duration
		scen := mobility.NewScenario(mobility.Static, cfg, rng.Split(uint64(i)))
		scen.Label = mobility.Macro
		scen.Client = mobility.WaypointWalk{
			Path:     corridors[i%len(corridors)],
			Speed:    rng.Split(uint64(i)+50).Range(1.0, 1.6),
			PingPong: true,
		}
		out = append(out, scen)
	}
	return out
}

// Figure7b reproduces the roaming-protocol comparison: CDFs of achieved
// throughput for the default client behaviour, the sensor-hint client
// scheme, and the paper's controller-based motion-aware protocol, over
// natural walks through the 6-AP floor.
func Figure7b(cfg Config) Result {
	runs := cfg.scaleInt(15, 4)
	dur := cfg.scaleDur(40, 20)
	opt := sim.DefaultWLANOptions(false)
	opt.Obs = cfg.Obs
	walks := crossFloorWalks(runs, dur, cfg.rng(710))

	type policyCase struct {
		name string
		mk   func() roaming.Policy
	}
	cases := []policyCase{
		{"default", func() roaming.Policy { return roaming.NewDefault80211() }},
		{"sensor-hint", func() roaming.Policy { return roaming.NewSensorHint() }},
		{"motion-aware", func() roaming.Policy { return roaming.NewMobilityAware() }},
	}
	var series []stats.Series
	medians := map[string]float64{}
	for ci, pc := range cases {
		mbps := parallel.RunTrials(len(walks), cfg.jobs(), func(r int) float64 {
			// Concurrent trials must not share a tracer key.
			o := opt
			o.Trial = trialsFig7b + ci*100_000 + r
			return sim.RunRoaming(walks[r], pc.mk(), o, cfg.Seed+uint64(r)).Mbps
		})
		medians[pc.name] = stats.Median(mbps)
		series = append(series, stats.CDFSeries(pc.name, mbps, 25))
	}
	res := Result{
		ID:     "fig7b",
		Title:  "Figure 7(b): CDF of client throughput under the three roaming protocols",
		XLabel: "Mbps",
		Series: series,
	}
	res.Text = renderSeries(res.Title, res.XLabel, series)
	for _, k := range sortedKeys(medians) {
		res.Notes = append(res.Notes, fmt.Sprintf("median throughput %s = %.1f Mbps", k, medians[k]))
	}
	if d, m := medians["default"], medians["motion-aware"]; d > 0 {
		res.Notes = append(res.Notes, fmt.Sprintf(
			"motion-aware over default: %+.1f%% (paper: ~30%% median)", 100*(m/d-1)))
	}
	return res
}
