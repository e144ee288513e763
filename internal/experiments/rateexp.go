package experiments

import (
	"fmt"

	"mobiwlan/internal/aggregation"
	"mobiwlan/internal/channel"
	"mobiwlan/internal/csi"
	"mobiwlan/internal/mobility"
	"mobiwlan/internal/parallel"
	"mobiwlan/internal/phy"
	"mobiwlan/internal/ratecontrol"
	"mobiwlan/internal/sim"
	"mobiwlan/internal/stats"
	"mobiwlan/internal/transport"
)

func init() {
	register("fig8a", Figure8a)
	register("fig8b", Figure8b)
	register("fig8c", Figure8c)
	register("fig9a", Figure9a)
	register("fig9b", Figure9b)
}

// oracleMCSTrace samples the oracle-optimal MCS index over time for a
// scenario (the paper's trace-based optimal-rate analysis).
func oracleMCSTrace(scen *mobility.Scenario, seed uint64, step, txPowerDBm float64) []stats.Point {
	chCfg := channel.DefaultConfig()
	// Cell-edge operating point: with full power even a 35 m walk never
	// leaves the top MCS, hiding the rate dynamics the figure is about.
	chCfg.TxPowerDBm = txPowerDBm
	ch := channel.New(chCfg, scen, stats.NewRNG(seed))
	var pts []stats.Point
	var h *csi.Matrix
	for t := 0.0; t < scen.Duration; t += step {
		h = ch.ResponseInto(t, h)
		eff := phy.EffectiveSNRdB(h, ch.SNRdB(t))
		m := phy.OptimalMCS(phy.Width40, true, eff, 1500, 2)
		pts = append(pts, stats.Point{X: t, Y: float64(m.Index)})
	}
	return pts
}

// Figure8a reproduces the CDF of the time durations for which the optimal
// bit-rate stays unchanged, per mobility variant: the faster the channel
// changes, the shorter the useful rate-control history.
func Figure8a(cfg Config) Result {
	runs := cfg.scaleInt(8, 3)
	dur := cfg.scaleDur(25, 12)
	const step = 0.02
	var series []stats.Series
	medians := map[string]float64{}
	variants := []modeVariant{
		{"static", mobility.Static, mobility.HeadingNone},
		{"environmental", mobility.Environmental, mobility.HeadingNone},
		{"micro", mobility.Micro, mobility.HeadingNone},
		{"macro", mobility.Macro, mobility.HeadingAway},
	}
	for vi, v := range variants {
		rng := cfg.rng(uint64(vi) + 800)
		holds := parallel.Flatten(
			parallel.RunTrials(runs, cfg.jobs(), func(r int) []float64 {
				scen := variantScene(v, r, dur, rng.Split(uint64(r)))
				trace := oracleMCSTrace(scen, cfg.Seed+uint64(vi)*100+uint64(r), step, 8)
				var out []float64
				holdStart := 0.0
				for i := 1; i < len(trace); i++ {
					if trace[i].Y != trace[i-1].Y {
						out = append(out, (trace[i].X-holdStart)*1000)
						holdStart = trace[i].X
					}
				}
				if len(trace) > 0 {
					out = append(out, (trace[len(trace)-1].X-holdStart)*1000)
				}
				return out
			}))
		medians[v.name] = stats.Median(holds)
		series = append(series, stats.CDFSeries(v.name, holds, 25))
	}
	res := Result{
		ID:     "fig8a",
		Title:  "Figure 8(a): CDF of durations during which the optimal bit-rate stays unchanged",
		XLabel: "duration(ms)",
		Series: series,
	}
	res.Text = renderSeries(res.Title, res.XLabel, series)
	for _, k := range sortedKeys(medians) {
		res.Notes = append(res.Notes, fmt.Sprintf("median hold %s = %.0f ms", k, medians[k]))
	}
	return res
}

// Figure8b reproduces the optimal-MCS-vs-time traces for macro walks
// toward and away from the AP: the optimal rate ramps up when approaching
// and down when receding.
func Figure8b(cfg Config) Result {
	dur := cfg.scaleDur(25, 15)
	mcfg := mobility.DefaultSceneConfig()
	mcfg.Duration = dur
	toward := mobility.NewMacroScenario(mobility.HeadingToward, mcfg, cfg.rng(810))
	away := mobility.NewMacroScenario(mobility.HeadingAway, mcfg, cfg.rng(811))
	series := parallel.RunTrials(2, cfg.jobs(), func(i int) stats.Series {
		if i == 0 {
			return stats.Series{Name: "moving-toward", Points: oracleMCSTrace(toward, cfg.Seed+810, 0.25, 8)}
		}
		return stats.Series{Name: "moving-away", Points: oracleMCSTrace(away, cfg.Seed+811, 0.25, 8)}
	})
	res := Result{
		ID:     "fig8b",
		Title:  "Figure 8(b): optimal MCS index over time under macro-mobility",
		XLabel: "time(s)",
		Series: series,
	}
	res.Text = renderSeries(res.Title, res.XLabel, series)
	t0 := series[0].Points
	a0 := series[1].Points
	res.Notes = append(res.Notes, fmt.Sprintf(
		"toward: MCS %v -> %v; away: MCS %v -> %v",
		t0[0].Y, t0[len(t0)-1].Y, a0[0].Y, a0[len(a0)-1].Y))
	return res
}

// Figure8c reproduces the optimal-MCS traces for environmental and micro
// mobility: the rate fluctuates within a small band with no trend.
func Figure8c(cfg Config) Result {
	dur := cfg.scaleDur(25, 15)
	mcfg := mobility.DefaultSceneConfig()
	mcfg.Duration = dur
	env := mobility.NewScenario(mobility.Environmental, mcfg, cfg.rng(820))
	micro := mobility.NewScenario(mobility.Micro, mcfg, cfg.rng(821))
	series := parallel.RunTrials(2, cfg.jobs(), func(i int) stats.Series {
		if i == 0 {
			return stats.Series{Name: "environmental", Points: oracleMCSTrace(env, cfg.Seed+820, 0.25, -4)}
		}
		return stats.Series{Name: "micro", Points: oracleMCSTrace(micro, cfg.Seed+821, 0.25, -4)}
	})
	res := Result{
		ID:     "fig8c",
		Title:  "Figure 8(c): optimal MCS index over time under environmental / micro mobility",
		XLabel: "time(s)",
		Series: series,
	}
	res.Text = renderSeries(res.Title, res.XLabel, series)
	for _, s := range series {
		ys := make([]float64, len(s.Points))
		for i, p := range s.Points {
			ys[i] = p.Y
		}
		res.Notes = append(res.Notes, fmt.Sprintf("%s: MCS band [%v, %v]", s.Name, stats.Min(ys), stats.Max(ys)))
	}
	return res
}

// mixedMobilityScenario builds one "link experiment" in the paper's §4.3
// style: the client is subjected to different forms of device mobility
// over the run (micro, then walking toward, then away, ping-ponging).
func mixedMobilityScenario(idx int, duration float64, rng *stats.RNG) *mobility.Scenario {
	cfg := mobility.DefaultSceneConfig()
	cfg.Duration = duration
	scen := mobility.NewMacroScenario(mobility.HeadingToward, cfg, rng)
	if w, ok := scen.Client.(mobility.WaypointWalk); ok {
		w.PingPong = true
		scen.Client = w
	}
	return scen
}

// Figure9a reproduces the per-link comparison of stock Atheros RA against
// the motion-aware variant with download TCP traffic on 15 links.
func Figure9a(cfg Config) Result {
	links := cfg.scaleInt(15, 4)
	dur := cfg.scaleDur(20, 10)
	rng := cfg.rng(900)
	type pair struct{ stock, aware float64 }
	pairs := parallel.RunTrials(links, cfg.jobs(), func(l int) pair {
		scen := mixedMobilityScenario(l, dur, rng.Split(uint64(l)))
		runOne := func(opt sim.LinkOptions, variant int) float64 {
			opt.Source = transport.NewTCPReno(1500)
			opt.Obs = cfg.Obs
			opt.Trial = trialsFig9a + l*2 + variant
			isolateRA(&opt)
			return sim.RunLink(scen, opt, cfg.Seed+uint64(l)).Mbps
		}
		return pair{stock: runOne(sim.DefaultLinkOptions(), 0), aware: runOne(sim.MotionAwareLinkOptions(), 1)}
	})
	var stockPts, awarePts []stats.Point
	var stockAll, awareAll []float64
	for l, p := range pairs {
		stockPts = append(stockPts, stats.Point{X: float64(l), Y: p.stock})
		awarePts = append(awarePts, stats.Point{X: float64(l), Y: p.aware})
		stockAll = append(stockAll, p.stock)
		awareAll = append(awareAll, p.aware)
	}
	series := []stats.Series{
		{Name: "atheros", Points: stockPts},
		{Name: "motion-aware", Points: awarePts},
	}
	res := Result{
		ID:     "fig9a",
		Title:  "Figure 9(a): per-link TCP throughput, stock vs motion-aware Atheros RA",
		XLabel: "link",
		Series: series,
	}
	res.Text = renderSeries(res.Title, res.XLabel, series)
	sm, am := stats.Median(stockAll), stats.Median(awareAll)
	res.Notes = append(res.Notes, fmt.Sprintf(
		"median: atheros=%.1f Mbps, motion-aware=%.1f Mbps (%+.1f%%; paper: +23%%)",
		sm, am, 100*(am/sm-1)))
	return res
}

// Figure9b reproduces the rate-control bake-off on identical channel
// conditions: stock Atheros, motion-aware Atheros, RapidSample, SoftRate
// and ESNR, each run through the live link simulator on the same walks
// and seeds (where the paper replays one recorded trace per walk),
// reporting mean throughput per scheme.
func Figure9b(cfg Config) Result {
	walks := cfg.scaleInt(10, 3)
	dur := cfg.scaleDur(20, 10)
	rng := cfg.rng(910)
	lc := ratecontrol.DefaultLinkConfig()

	type schemeCase struct {
		name string
		mk   func() sim.LinkOptions
	}
	cases := []schemeCase{
		{"atheros", func() sim.LinkOptions {
			opt := sim.DefaultLinkOptions()
			opt.Adapter = ratecontrol.NewAtheros(lc)
			return opt
		}},
		{"motion-aware", func() sim.LinkOptions {
			return sim.MotionAwareLinkOptions()
		}},
		{"rapidsample", func() sim.LinkOptions {
			// RapidSample's hint comes from the device's accelerometer:
			// ground-truth device-mobility bit, no PHY classification.
			opt := sim.DefaultLinkOptions()
			opt.Adapter = ratecontrol.NewRapidSample(lc)
			opt.States = sim.GroundTruth
			return opt
		}},
		{"softrate", func() sim.LinkOptions {
			opt := sim.DefaultLinkOptions()
			opt.Adapter = ratecontrol.NewSoftRate(lc)
			return opt
		}},
		{"esnr", func() sim.LinkOptions {
			opt := sim.DefaultLinkOptions()
			opt.Adapter = ratecontrol.NewESNR(lc)
			return opt
		}},
	}
	means := map[string]float64{}
	var series []stats.Series
	for _, sc := range cases {
		all := parallel.RunTrials(walks, cfg.jobs(), func(w int) float64 {
			scen := mixedMobilityScenario(w, dur, rng.Split(uint64(w)))
			opt := sc.mk()
			isolateRA(&opt)
			return sim.RunLink(scen, opt, cfg.Seed+uint64(w)).Mbps
		})
		means[sc.name] = stats.Mean(all)
		series = append(series, stats.Series{Name: sc.name,
			Points: []stats.Point{{X: 0, Y: stats.Mean(all)}}})
	}
	rows := [][2]string{}
	for _, sc := range cases {
		rows = append(rows, [2]string{sc.name, fmt.Sprintf("%.1f Mbps", means[sc.name])})
	}
	res := Result{
		ID:     "fig9b",
		Title:  "Figure 9(b): mean throughput of rate-control schemes on identical walking traces",
		XLabel: "scheme",
		Series: series,
		Text:   renderKV("Figure 9(b): mean throughput of rate-control schemes on identical walking traces", rows),
	}
	if e := means["esnr"]; e > 0 {
		res.Notes = append(res.Notes, fmt.Sprintf(
			"motion-aware achieves %.0f%% of ESNR (paper: ~90%%); beats rapidsample by %+.1f%%",
			100*means["motion-aware"]/e, 100*(means["motion-aware"]/means["rapidsample"]-1)))
	}
	return res
}

// isolateRA pins everything except the rate-control algorithm: the same
// short fixed aggregation (so aggregate aging does not confound the rate
// comparison, as in the paper's trace-based emulation) and a cell-edge
// power budget where rate choice actually matters.
func isolateRA(opt *sim.LinkOptions) {
	// Short frames: the paper's trace-based emulation compares rate
	// control without aggregation, so intra-frame aging must not
	// dominate the comparison.
	opt.Agg = aggregation.Fixed{Limit: 1e-3}
	opt.Channel.TxPowerDBm = 8
}
