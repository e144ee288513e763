package experiments

import (
	"fmt"

	"mobiwlan/internal/beamforming"
	"mobiwlan/internal/channel"
	"mobiwlan/internal/core"
	"mobiwlan/internal/mobility"
	"mobiwlan/internal/parallel"
	"mobiwlan/internal/stats"
)

func init() {
	register("fig11a", Figure11a)
	register("fig11b", Figure11b)
	register("fig12a", Figure12a)
	register("fig12b", Figure12b)
}

// bfChannel builds a cell-edge channel for beamforming studies (the array
// gain only matters when the link is not SNR-saturated).
func bfChannel(scen *mobility.Scenario, seed uint64) *channel.Model {
	chCfg := channel.DefaultConfig()
	// Deep cell edge: single-stream rates top out at 23 dB, so the ~5 dB
	// array gain (and its loss under stale feedback) only moves the rate
	// when the base SNR sits in the 10-25 dB band.
	chCfg.TxPowerDBm = -8
	// Cluttered link (cubicle walls block the direct path): the channel is
	// multipath-dominated, so the beam decorrelates within a fraction of a
	// wavelength of motion — the regime where feedback freshness matters,
	// as on the paper's office links.
	chCfg.LoSGain = 0.3
	return channel.New(chCfg, scen, stats.NewRNG(seed))
}

// Figure11a reproduces SU-beamforming throughput versus the CSI feedback
// period for each mobility mode: static links prefer rare sounding (the
// overhead dominates), mobile links collapse with stale beams.
func Figure11a(cfg Config) Result {
	periods := []float64{5e-3, 10e-3, 20e-3, 50e-3, 100e-3, 200e-3}
	runs := cfg.scaleInt(5, 2)
	dur := cfg.scaleDur(8, 4)
	var series []stats.Series
	var notes []string
	for vi, mode := range mobility.AllModes {
		rng := cfg.rng(uint64(vi) + 1100)
		var pts []stats.Point
		for _, period := range periods {
			all := parallel.RunTrials(runs, cfg.jobs(), func(r int) float64 {
				scen := sceneFor(mode, r, dur+2, 1, rng.Split(uint64(r)))
				ch := bfChannel(scen, cfg.Seed+uint64(vi)*31+uint64(r))
				return beamforming.RunSU(ch, beamforming.FixedFeedback{T: period}, nil,
					beamforming.DefaultConfig(), dur).Mbps
			})
			pts = append(pts, stats.Point{X: period * 1000, Y: stats.Mean(all)})
		}
		series = append(series, stats.Series{Name: mode.String(), Points: pts})
		notes = append(notes, fmt.Sprintf("%s: best period %.0f ms", mode, bestX(pts)))
	}
	res := Result{
		ID:     "fig11a",
		Title:  "Figure 11(a): SU-beamforming throughput vs CSI feedback period, per mobility mode",
		XLabel: "period(ms)",
		Series: series,
		Notes:  notes,
	}
	res.Text = renderSeries(res.Title, res.XLabel, series)
	return res
}

func bestX(pts []stats.Point) float64 {
	best, bestY := 0.0, -1.0
	for _, p := range pts {
		if p.Y > bestY {
			best, bestY = p.X, p.Y
		}
	}
	return best
}

// Figure11b reproduces the CDF of throughput gain of mobility-adaptive
// CSI feedback over the fixed default period for SU beamforming across
// links in different mobility modes. The scanned paper's default period
// reads "2 0ms"; we interpret it as a conservative 200 ms (drivers sound
// rarely by default because feedback costs airtime), which also matches
// the Fig. 11(a) sweep's right edge.
func Figure11b(cfg Config) Result {
	links := cfg.scaleInt(30, 6)
	dur := cfg.scaleDur(10, 5)
	rng := cfg.rng(1110)
	// The paper's Fig. 11(b) evaluates "mobile links": the clients are
	// under device mobility (micro or macro), not parked.
	mobileVariants := []modeVariant{
		{"micro", mobility.Micro, mobility.HeadingNone},
		{"macro-toward", mobility.Macro, mobility.HeadingToward},
		{"macro-away", mobility.Macro, mobility.HeadingAway},
	}
	gains := parallel.Flatten(
		parallel.RunTrials(links, cfg.jobs(), func(l int) []float64 {
			v := mobileVariants[l%len(mobileVariants)]
			scen := variantScene(v, l, dur+6, rng.Split(uint64(l)))
			stateAt := core.StateAt(core.RunScenario(scen, core.DefaultPipelineConfig(), cfg.Seed+uint64(l)))
			suCfg := beamforming.DefaultConfig()
			suCfg.Obs = cfg.Obs
			chA := bfChannel(scen, cfg.Seed+uint64(l)*7)
			suCfg.Trial = trialsFig11b + l*2
			def := beamforming.RunSU(chA, beamforming.FixedFeedback{T: 200e-3}, nil,
				suCfg, dur)
			chB := bfChannel(scen, cfg.Seed+uint64(l)*7)
			suCfg.Trial = trialsFig11b + l*2 + 1
			ada := beamforming.RunSU(chB, beamforming.Adaptive{}, stateAt,
				suCfg, dur)
			if def.Mbps > 0 {
				return []float64{100 * (ada.Mbps/def.Mbps - 1)}
			}
			return nil
		}))
	series := []stats.Series{stats.CDFSeries("gain", gains, 25)}
	res := Result{
		ID:     "fig11b",
		Title:  "Figure 11(b): CDF of motion-aware TxBF throughput gain over fixed 200 ms feedback",
		XLabel: "gain(%)",
		Series: series,
	}
	res.Text = renderSeries(res.Title, res.XLabel, series)
	res.Notes = append(res.Notes, fmt.Sprintf(
		"median gain = %+.1f%% (paper: ~33%% median)", stats.Median(gains)))
	return res
}

// muTrio builds the paper's 3-client MU-MIMO mix: one client each in
// environmental, micro and macro mobility, single-antenna receivers.
func muTrio(cfg Config, idx int, duration float64, periods [3]float64, useAdaptive bool) []beamforming.MUUser {
	modes := [3]mobility.Mode{mobility.Environmental, mobility.Micro, mobility.Macro}
	chCfg := channel.DefaultConfig()
	chCfg.NRx = 1
	// Moderate SNR: zero-forcing interference floors matter for stale
	// clients without drowning the quasi-static ones (ZF error floors
	// scale with SNR, so full power would punish even 1-2%% channel
	// drift).
	chCfg.TxPowerDBm = 4
	users := make([]beamforming.MUUser, 3)
	for i := 0; i < 3; i++ {
		rng := cfg.rng(uint64(idx)*91 + uint64(i) + 1200)
		mcfg := mobility.DefaultSceneConfig()
		mcfg.Duration = duration + 8
		// The stationary clients sit in a normal office, not a lunch-hour
		// cafeteria: mild environmental motion.
		mcfg.EnvIntensity = 0.4
		var scen *mobility.Scenario
		if modes[i] == mobility.Macro {
			h := mobility.HeadingAway
			if idx%2 == 0 {
				h = mobility.HeadingToward
			}
			scen = mobility.NewMacroScenario(h, mcfg, rng)
		} else {
			scen = mobility.NewScenario(modes[i], mcfg, rng)
		}
		ch := channel.NewAt(chCfg, mcfg.AP, scen, rng.Split(55))
		u := beamforming.MUUser{Chan: ch}
		if useAdaptive {
			u.Sched = beamforming.Adaptive{Table: beamforming.MUAdaptiveTable}
			u.StateAt = core.StateAt(core.RunScenario(scen, core.DefaultPipelineConfig(), cfg.Seed+uint64(idx)*13+uint64(i)))
		} else {
			u.Sched = beamforming.FixedFeedback{T: periods[i]}
		}
		users[i] = u
	}
	return users
}

// Figure12a reproduces MU-MIMO throughput versus a common CSI feedback
// period for the 3-client environmental/micro/macro mix: staleness mainly
// hurts the mobile client.
func Figure12a(cfg Config) Result {
	periods := []float64{2e-3, 5e-3, 10e-3, 20e-3, 50e-3, 100e-3}
	dur := cfg.scaleDur(6, 3)
	names := []string{"environmental", "micro", "macro"}
	curves := make([][]stats.Point, 3)
	var total []stats.Point
	for i, res := range parallel.RunTrials(len(periods), cfg.jobs(), func(i int) beamforming.MUResult {
		period := periods[i]
		users := muTrio(cfg, 0, dur, [3]float64{period, period, period}, false)
		return beamforming.RunMU(users, beamforming.DefaultConfig(), dur)
	}) {
		period := periods[i]
		for u := 0; u < 3; u++ {
			curves[u] = append(curves[u], stats.Point{X: period * 1000, Y: res.PerUserMbps[u]})
		}
		total = append(total, stats.Point{X: period * 1000, Y: res.TotalMbps})
	}
	var series []stats.Series
	for u, name := range names {
		series = append(series, stats.Series{Name: name, Points: curves[u]})
	}
	series = append(series, stats.Series{Name: "total", Points: total})
	res := Result{
		ID:     "fig12a",
		Title:  "Figure 12(a): MU-MIMO per-client throughput vs common CSI feedback period",
		XLabel: "period(ms)",
		Series: series,
	}
	res.Text = renderSeries(res.Title, res.XLabel, series)
	res.Notes = append(res.Notes, fmt.Sprintf(
		"macro client best at %.0f ms; environmental best at %.0f ms",
		bestX(curves[2]), bestX(curves[0])))
	return res
}

// Figure12b reproduces the CDF of per-client MU-MIMO throughput gain of
// mobility-adaptive feedback (driven by the classifier) over the fixed
// 20 ms default, across emulation scenarios.
func Figure12b(cfg Config) Result {
	scenarios := cfg.scaleInt(12, 3)
	dur := cfg.scaleDur(6, 3)
	names := []string{"environmental", "micro", "macro"}
	gainsByUser := map[string][]float64{}
	var overall []float64
	type muPair struct{ def, ada beamforming.MUResult }
	for _, p := range parallel.RunTrials(scenarios, cfg.jobs(), func(s int) muPair {
		return muPair{
			def: beamforming.RunMU(
				muTrio(cfg, s, dur, [3]float64{20e-3, 20e-3, 20e-3}, false),
				beamforming.DefaultConfig(), dur),
			ada: beamforming.RunMU(
				muTrio(cfg, s, dur, [3]float64{}, true),
				beamforming.DefaultConfig(), dur),
		}
	}) {
		def, ada := p.def, p.ada
		for u, name := range names {
			if def.PerUserMbps[u] > 0 {
				gainsByUser[name] = append(gainsByUser[name],
					100*(ada.PerUserMbps[u]/def.PerUserMbps[u]-1))
			}
		}
		if def.TotalMbps > 0 {
			overall = append(overall, 100*(ada.TotalMbps/def.TotalMbps-1))
		}
	}
	var series []stats.Series
	for _, name := range names {
		series = append(series, stats.CDFSeries(name, gainsByUser[name], 20))
	}
	series = append(series, stats.CDFSeries("overall", overall, 20))
	res := Result{
		ID:     "fig12b",
		Title:  "Figure 12(b): CDF of MU-MIMO throughput gain with mobility-adaptive CSI feedback",
		XLabel: "gain(%)",
		Series: series,
	}
	res.Text = renderSeries(res.Title, res.XLabel, series)
	res.Notes = append(res.Notes, fmt.Sprintf(
		"mean overall gain = %+.1f%% (paper: ~40%%); macro-client median gain = %+.1f%%",
		stats.Mean(overall), stats.Median(gainsByUser["macro"])))
	return res
}
