package experiments

import (
	"fmt"

	"mobiwlan/internal/channel"
	"mobiwlan/internal/core"
	"mobiwlan/internal/csi"
	"mobiwlan/internal/mobility"
	"mobiwlan/internal/parallel"
	"mobiwlan/internal/stats"
	"mobiwlan/internal/tof"
)

func init() {
	register("fig1", Figure1)
	register("fig2a", Figure2a)
	register("fig2b", Figure2b)
	register("fig2c", Figure2c)
	register("fig4", Figure4)
	register("table1", Table1)
	register("fig6a", Figure6a)
	register("fig6b", Figure6b)
}

// sceneFor builds a labeled scenario. Macro scenarios are controlled
// radial walks (heading alternating by index), matching the paper's
// walking experiments; env intensity differentiates weak/strong variants.
func sceneFor(mode mobility.Mode, idx int, duration, envIntensity float64, rng *stats.RNG) *mobility.Scenario {
	cfg := mobility.DefaultSceneConfig()
	cfg.Duration = duration
	cfg.EnvIntensity = envIntensity
	if mode == mobility.Macro {
		h := mobility.HeadingAway
		if idx%2 == 0 {
			h = mobility.HeadingToward
		}
		return mobility.NewMacroScenario(h, cfg, rng)
	}
	return mobility.NewScenario(mode, cfg, rng)
}

// Figure1 reproduces the CDF of RSSI standard deviation computed over 5 s
// windows, per mobility mode — the motivation that RSSI alone cannot
// separate environmental from device mobility.
func Figure1(cfg Config) Result {
	runs := cfg.scaleInt(10, 3)
	dur := cfg.scaleDur(30, 10)
	samples := map[string][]float64{}
	order := []string{"static", "environmental", "micro", "macro"}
	for _, mode := range mobility.AllModes {
		rng := cfg.rng(uint64(mode) + 1)
		samples[mode.String()] = parallel.Flatten(
			parallel.RunTrials(runs, cfg.jobs(), func(r int) []float64 {
				scen := sceneFor(mode, r, dur, 1, rng.Split(uint64(r)))
				ch := channel.New(channel.DefaultConfig(), scen, rng.Split(uint64(r)+1000))
				// RSSI sampled from ACKs every 100 ms; stddev per 5 s window.
				var out, window []float64
				var buf *csi.Matrix
				for t := 0.0; t < dur; t += 0.1 {
					s := ch.MeasureInto(t, buf)
					buf = s.CSI
					window = append(window, s.RSSIdBm)
					if len(window) == 50 {
						out = append(out, stats.StdDev(window))
						window = window[:0]
					}
				}
				return out
			}))
	}
	var series []stats.Series
	for _, name := range order {
		series = append(series, stats.CDFSeries(name, samples[name], 25))
	}
	res := Result{
		ID:     "fig1",
		Title:  "Figure 1: CDF of RSSI stddev over 5 s windows, per mobility mode",
		XLabel: "stddev(dB)",
		Series: series,
	}
	res.Text = renderSeries(res.Title, res.XLabel, series)
	res.Notes = append(res.Notes,
		fmt.Sprintf("median stddev: static=%.2f env=%.2f micro=%.2f macro=%.2f dB (env overlaps device mobility, so RSSI cannot classify)",
			stats.Median(samples["static"]), stats.Median(samples["environmental"]),
			stats.Median(samples["micro"]), stats.Median(samples["macro"])))
	return res
}

// similaritySeries samples CSI every tau seconds and returns consecutive-
// sample similarities.
func similaritySeries(ch *channel.Model, tau, duration float64) []float64 {
	var out []float64
	var ws csi.Workspace
	// Ping-pong between two buffers: the previous snapshot must survive one
	// step so consecutive samples can be compared without copying.
	var prev, cur *csi.Matrix
	for t := 0.0; t < duration; t += tau {
		s := ch.MeasureInto(t, cur)
		cur = s.CSI
		if prev != nil {
			out = append(out, ws.Similarity(prev, cur))
		}
		prev, cur = cur, prev
	}
	return out
}

// Figure2a reproduces the similarity-over-time traces: one curve per mode
// (environmental split weak/strong), CSI sampled every 100 ms.
func Figure2a(cfg Config) Result {
	dur := cfg.scaleDur(20, 8)
	type variant struct {
		name      string
		mode      mobility.Mode
		intensity float64
	}
	variants := []variant{
		{"static", mobility.Static, 1},
		{"env-weak", mobility.Environmental, 0.5},
		{"env-strong", mobility.Environmental, 2.2},
		{"micro", mobility.Micro, 1},
		{"macro", mobility.Macro, 1},
	}
	series := parallel.RunTrials(len(variants), cfg.jobs(), func(i int) stats.Series {
		v := variants[i]
		rng := cfg.rng(uint64(i) + 10)
		scen := sceneFor(v.mode, 1, dur, v.intensity, rng)
		ch := channel.New(channel.DefaultConfig(), scen, rng.Split(99))
		sims := similaritySeries(ch, 0.1, dur)
		pts := make([]stats.Point, len(sims))
		for j, s := range sims {
			pts[j] = stats.Point{X: float64(j+1) * 0.1, Y: s}
		}
		return stats.Series{Name: v.name, Points: pts}
	})
	res := Result{
		ID:     "fig2a",
		Title:  "Figure 2(a): CSI similarity over time (tau = 100 ms)",
		XLabel: "time(s)",
		Series: series,
	}
	res.Text = renderSeries(res.Title, res.XLabel, series)
	return res
}

// Figure2b reproduces the CDFs of consecutive-sample similarity at
// tau = 500 ms for the five variants. The thresholds ThrSta = 0.98 and
// ThrEnv = 0.7 separate the three coarse classes.
func Figure2b(cfg Config) Result {
	runs := cfg.scaleInt(8, 3)
	dur := cfg.scaleDur(20, 8)
	type variant struct {
		name      string
		mode      mobility.Mode
		intensity float64
	}
	variants := []variant{
		{"static", mobility.Static, 1},
		{"env-weak", mobility.Environmental, 0.5},
		{"env-strong", mobility.Environmental, 2.2},
		{"micro", mobility.Micro, 1},
		{"macro", mobility.Macro, 1},
	}
	var series []stats.Series
	medians := map[string]float64{}
	for i, v := range variants {
		rng := cfg.rng(uint64(i) + 30)
		all := parallel.Flatten(
			parallel.RunTrials(runs, cfg.jobs(), func(r int) []float64 {
				scen := sceneFor(v.mode, r, dur, v.intensity, rng.Split(uint64(r)))
				ch := channel.New(channel.DefaultConfig(), scen, rng.Split(uint64(r)+500))
				return similaritySeries(ch, 0.5, dur)
			}))
		medians[v.name] = stats.Median(all)
		series = append(series, stats.CDFSeries(v.name, all, 25))
	}
	res := Result{
		ID:     "fig2b",
		Title:  "Figure 2(b): CDF of CSI similarity of consecutive samples (tau = 500 ms)",
		XLabel: "similarity",
		Series: series,
	}
	res.Text = renderSeries(res.Title, res.XLabel, series)
	for _, k := range sortedKeys(medians) {
		res.Notes = append(res.Notes, fmt.Sprintf("median similarity %s = %.3f", k, medians[k]))
	}
	return res
}

// Figure2c reproduces the micro vs macro similarity CDFs at three CSI
// sampling periods: faster sampling widens the gap but overlap remains,
// so CSI cannot separate the two device-mobility classes.
func Figure2c(cfg Config) Result {
	runs := cfg.scaleInt(6, 3)
	dur := cfg.scaleDur(15, 8)
	periods := []float64{0.05, 0.1, 0.25}
	var series []stats.Series
	var notes []string
	for _, tau := range periods {
		for _, mode := range []mobility.Mode{mobility.Micro, mobility.Macro} {
			rng := cfg.rng(uint64(mode)*100 + uint64(tau*1e4))
			all := parallel.Flatten(
				parallel.RunTrials(runs, cfg.jobs(), func(r int) []float64 {
					scen := sceneFor(mode, r, dur, 1, rng.Split(uint64(r)))
					ch := channel.New(channel.DefaultConfig(), scen, rng.Split(uint64(r)+500))
					return similaritySeries(ch, tau, dur)
				}))
			name := fmt.Sprintf("%s@%.0fms", mode, tau*1000)
			series = append(series, stats.CDFSeries(name, all, 25))
			notes = append(notes, fmt.Sprintf("median %s = %.3f", name, stats.Median(all)))
		}
	}
	res := Result{
		ID:     "fig2c",
		Title:  "Figure 2(c): micro vs macro similarity CDFs at 50/100/250 ms sampling",
		XLabel: "similarity",
		Series: series,
		Notes:  notes,
	}
	res.Text = renderSeries(res.Title, res.XLabel, series)
	return res
}

// Figure4 reproduces the ToF time series under device mobility: noisy but
// flat for micro-mobility; steadily ramping (and reversing at turns) for a
// macro walk toward/away from the AP.
func Figure4(cfg Config) Result {
	dur := cfg.scaleDur(60, 20)
	interval := core.DefaultConfig().MedianInterval
	mkSeries := func(name string, scen *mobility.Scenario, seed uint64) stats.Series {
		meter := tof.NewMeter(tof.DefaultConfig(), cfg.rng(seed))
		var meds tof.Medians
		var pts []stats.Point
		for i := 0; i < int(dur/tof.SampleInterval); i++ {
			t := float64(i) * tof.SampleInterval
			raw := meter.Raw(scen.Client.At(t).Dist(scen.AP))
			if med, ok := meds.Add(t, raw, interval); ok {
				pts = append(pts, stats.Point{X: t, Y: med - meter.Config().OffsetCycles})
			}
		}
		return stats.Series{Name: name, Points: pts}
	}
	mcfg := mobility.DefaultSceneConfig()
	mcfg.Duration = dur
	micro := mobility.NewScenario(mobility.Micro, mcfg, cfg.rng(41))
	// Macro: the paper's Fig. 4 walks towards and away periodically.
	macro := mobility.NewMacroScenario(mobility.HeadingAway, mcfg, cfg.rng(42))
	if w, ok := macro.Client.(mobility.WaypointWalk); ok {
		w.PingPong = true
		macro.Client = w
	}
	series := parallel.RunTrials(2, cfg.jobs(), func(i int) stats.Series {
		if i == 0 {
			return mkSeries("micro", micro, 43)
		}
		return mkSeries("macro", macro, 44)
	})
	res := Result{
		ID:     "fig4",
		Title:  "Figure 4: per-second ToF medians over time under device mobility (clock cycles, offset removed)",
		XLabel: "time(s)",
		Series: series,
	}
	res.Text = renderSeries(res.Title, res.XLabel, series)
	return res
}

// Table1 reproduces the classification confusion matrix over held-out
// scenarios (seeds disjoint from any used for calibration).
func Table1(cfg Config) Result {
	runs := cfg.scaleInt(25, 4)
	dur := cfg.scaleDur(16, 12)
	warmup := 6.0
	var cm core.ConfusionMatrix
	pc := core.DefaultPipelineConfig()
	for _, mode := range mobility.AllModes {
		rng := cfg.rng(uint64(mode) + 60)
		for _, decisions := range parallel.RunTrials(runs, cfg.jobs(), func(r int) []core.Decision {
			scen := sceneFor(mode, r, dur, 1, rng.Split(uint64(r)*3+1))
			tpc := pc
			tpc.Obs = cfg.Obs
			tpc.Trial = trialsTable1 + int(mode)*10_000 + r
			return core.RunScenario(scen, tpc, cfg.Seed+uint64(mode)*1000+uint64(r))
		}) {
			cm.Add(decisions, warmup)
		}
	}
	rows := [][2]string{
		{"ground truth", "static   env      micro    macro"},
	}
	for _, mode := range mobility.AllModes {
		row := cm.Row(mode)
		rows = append(rows, [2]string{mode.String(),
			fmt.Sprintf("%6.1f%%  %6.1f%%  %6.1f%%  %6.1f%%", row[0], row[1], row[2], row[3])})
	}
	diag := cm.Diagonal()
	res := Result{
		ID:    "table1",
		Title: "Table 1: mobility classification confusion matrix (percent of decisions)",
		Text:  renderKV("Table 1: mobility classification confusion matrix (percent of decisions)", rows),
	}
	res.Notes = append(res.Notes, fmt.Sprintf(
		"per-mode accuracy: static=%.1f%% env=%.1f%% micro=%.1f%% macro=%.1f%% (paper: 97.9/92.4/93.7/97.1)",
		diag[0], diag[1], diag[2], diag[3]))
	return res
}

// counts tallies classifier decisions over one trial.
type counts struct{ hit, total int }

// countMobile counts post-warmup decisions, with hits where the state is a
// device-mobility class (micro or macro).
func countMobile(decisions []core.Decision, warmup float64) counts {
	var c counts
	for _, d := range decisions {
		if d.Time < warmup {
			continue
		}
		c.total++
		if m := d.State.Mode(); m == mobility.Micro || m == mobility.Macro {
			c.hit++
		}
	}
	return c
}

// countMode counts post-warmup decisions, with hits where the state's mode
// equals want.
func countMode(decisions []core.Decision, warmup float64, want mobility.Mode) counts {
	var c counts
	for _, d := range decisions {
		if d.Time < warmup {
			continue
		}
		c.total++
		if d.State.Mode() == want {
			c.hit++
		}
	}
	return c
}

// Figure6a reproduces accuracy and false positives of CSI-based
// device-mobility detection versus the CSI sampling period.
func Figure6a(cfg Config) Result {
	periods := []float64{0.01, 0.025, 0.05, 0.1, 0.2, 0.4}
	runs := cfg.scaleInt(8, 3)
	dur := cfg.scaleDur(16, 10)
	warmup := 3.0
	var acc, fp []stats.Point
	var notes []string
	for _, period := range periods {
		pc := core.DefaultPipelineConfig()
		pc.Classifier.CSISamplePeriod = period
		// Accuracy: device-mobility scenarios classified as device mobility.
		correct, total := 0, 0
		for _, mode := range []mobility.Mode{mobility.Micro, mobility.Macro} {
			rng := cfg.rng(uint64(mode)*7 + uint64(period*1e5))
			for _, c := range parallel.RunTrials(runs, cfg.jobs(), func(r int) counts {
				scen := sceneFor(mode, r, dur, 1, rng.Split(uint64(r)))
				return countMobile(core.RunScenario(scen, pc, cfg.Seed+uint64(r)), warmup)
			}) {
				correct += c.hit
				total += c.total
			}
		}
		// False positives: stationary scenarios classified as device mobility.
		fpCount, fpTotal := 0, 0
		for _, mode := range []mobility.Mode{mobility.Static, mobility.Environmental} {
			rng := cfg.rng(uint64(mode)*13 + uint64(period*1e5))
			for _, c := range parallel.RunTrials(runs, cfg.jobs(), func(r int) counts {
				scen := sceneFor(mode, r, dur, 1, rng.Split(uint64(r)))
				return countMobile(core.RunScenario(scen, pc, cfg.Seed+uint64(r)+99), warmup)
			}) {
				fpCount += c.hit
				fpTotal += c.total
			}
		}
		a := 100 * float64(correct) / float64(max(total, 1))
		f := 100 * float64(fpCount) / float64(max(fpTotal, 1))
		acc = append(acc, stats.Point{X: period * 1000, Y: a})
		fp = append(fp, stats.Point{X: period * 1000, Y: f})
		notes = append(notes, fmt.Sprintf("period %.0f ms: accuracy %.1f%%, false positives %.1f%%", period*1000, a, f))
	}
	series := []stats.Series{{Name: "accuracy%", Points: acc}, {Name: "false-positives%", Points: fp}}
	res := Result{
		ID:     "fig6a",
		Title:  "Figure 6(a): device-mobility detection vs CSI sampling period",
		XLabel: "period(ms)",
		Series: series,
		Notes:  notes,
	}
	res.Text = renderSeries(res.Title, res.XLabel, series)
	return res
}

// Figure6b reproduces macro-mobility detection accuracy and false
// positives versus the ToF detection window size. The minimum-travel
// guard scales with the window (a walker covers proportionally more ToF
// per window), so small windows trade false positives for agility exactly
// as the paper's Fig. 6(b) shows.
func Figure6b(cfg Config) Result {
	windows := []int{2, 3, 4, 5, 6, 8}
	runs := cfg.scaleInt(8, 3)
	dur := cfg.scaleDur(20, 14)
	var acc, fp []stats.Point
	var notes []string
	for _, w := range windows {
		pc := core.DefaultPipelineConfig()
		pc.Classifier.ToFWindow = w
		pc.Classifier.ToFMinTravel = 0.375 * float64(w)
		warmup := float64(w) + 3
		// Accuracy over both device-mobility classes: micro must stay
		// micro and macro walks must be detected macro.
		correct, total := 0, 0
		for _, mode := range []mobility.Mode{mobility.Micro, mobility.Macro} {
			rng := cfg.rng(uint64(w)*31 + uint64(mode) + 7)
			for _, c := range parallel.RunTrials(runs, cfg.jobs(), func(r int) counts {
				scen := sceneFor(mode, r, dur, 1, rng.Split(uint64(r)))
				return countMode(core.RunScenario(scen, pc, cfg.Seed+uint64(r)), warmup, mode)
			}) {
				correct += c.hit
				total += c.total
			}
		}
		// False positives on micro scenarios.
		fpCount, fpTotal := 0, 0
		fpRNG := cfg.rng(uint64(w)*31 + 8)
		for _, c := range parallel.RunTrials(runs, cfg.jobs(), func(r int) counts {
			scen := sceneFor(mobility.Micro, r, dur, 1, fpRNG.Split(uint64(r)))
			return countMode(core.RunScenario(scen, pc, cfg.Seed+uint64(r)+55), warmup, mobility.Macro)
		}) {
			fpCount += c.hit
			fpTotal += c.total
		}
		a := 100 * float64(correct) / float64(max(total, 1))
		f := 100 * float64(fpCount) / float64(max(fpTotal, 1))
		acc = append(acc, stats.Point{X: float64(w), Y: a})
		fp = append(fp, stats.Point{X: float64(w), Y: f})
		notes = append(notes, fmt.Sprintf("window %d s: accuracy %.1f%%, false positives %.1f%%", w, a, f))
	}
	series := []stats.Series{{Name: "accuracy%", Points: acc}, {Name: "false-positives%", Points: fp}}
	res := Result{
		ID:     "fig6b",
		Title:  "Figure 6(b): macro-mobility detection vs ToF window size",
		XLabel: "window(s)",
		Series: series,
		Notes:  notes,
	}
	res.Text = renderSeries(res.Title, res.XLabel, series)
	return res
}
