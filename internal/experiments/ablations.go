package experiments

import (
	"fmt"

	"mobiwlan/internal/aggregation"
	"mobiwlan/internal/beamforming"
	"mobiwlan/internal/channel"
	"mobiwlan/internal/core"
	"mobiwlan/internal/csi"
	"mobiwlan/internal/mac"
	"mobiwlan/internal/mobility"
	"mobiwlan/internal/parallel"
	"mobiwlan/internal/phy"
	"mobiwlan/internal/ratecontrol"
	"mobiwlan/internal/roaming"
	"mobiwlan/internal/sched"
	"mobiwlan/internal/sim"
	"mobiwlan/internal/stats"
	"mobiwlan/internal/tof"
)

func init() {
	register("abl-oracle", AblationOracle)
	register("abl-thresholds", AblationThresholds)
	register("abl-80211r", Ablation80211r)
	register("abl-width", AblationWidth)
	register("abl-quant", AblationQuantization)
	register("abl-orbit", AblationOrbit)
	register("abl-sched", AblationSched)
}

// AblationOracle separates the protocol benefit from the classification
// accuracy: the mobility-aware link stack driven by the real classifier
// versus ground-truth oracle states, on walking links. The gap between the
// two is the throughput cost of classification errors and latency.
func AblationOracle(cfg Config) Result {
	links := cfg.scaleInt(10, 3)
	dur := cfg.scaleDur(18, 10)
	rng := cfg.rng(2000)
	type triple struct{ stock, classified, oracle float64 }
	var stock, classified, oracle []float64
	for _, tr := range parallel.RunTrials(links, cfg.jobs(), func(l int) triple {
		scen := mixedMobilityScenario(l, dur, rng.Split(uint64(l)))
		run := func(opt sim.LinkOptions) float64 {
			isolateRA(&opt)
			return sim.RunLink(scen, opt, cfg.Seed+uint64(l)).Mbps
		}
		o := sim.MotionAwareLinkOptions()
		o.States = sim.GroundTruth
		return triple{
			stock:      run(sim.DefaultLinkOptions()),
			classified: run(sim.MotionAwareLinkOptions()),
			oracle:     run(o),
		}
	}) {
		stock = append(stock, tr.stock)
		classified = append(classified, tr.classified)
		oracle = append(oracle, tr.oracle)
	}
	rows := [][2]string{
		{"stock Atheros", fmt.Sprintf("%.1f Mbps", stats.Mean(stock))},
		{"motion-aware (classifier)", fmt.Sprintf("%.1f Mbps", stats.Mean(classified))},
		{"motion-aware (oracle truth)", fmt.Sprintf("%.1f Mbps", stats.Mean(oracle))},
	}
	res := Result{
		ID:    "abl-oracle",
		Title: "Ablation: classifier-driven vs ground-truth-driven motion awareness",
		Text:  renderKV("Ablation: classifier-driven vs ground-truth-driven motion awareness", rows),
	}
	if o := stats.Mean(oracle); o > 0 {
		res.Notes = append(res.Notes, fmt.Sprintf(
			"classifier captures %.0f%% of the oracle's gain over stock",
			100*(stats.Mean(classified)-stats.Mean(stock))/(o-stats.Mean(stock)+1e-9)))
	}
	return res
}

// AblationThresholds sweeps the classifier's similarity thresholds around
// the paper's choices (0.98, 0.7), reporting overall four-mode accuracy —
// the design-choice sensitivity behind §2.3.
func AblationThresholds(cfg Config) Result {
	runs := cfg.scaleInt(8, 3)
	dur := cfg.scaleDur(16, 12)
	type pair struct{ sta, env float64 }
	pairs := []pair{
		{0.95, 0.5}, {0.95, 0.7}, {0.98, 0.5}, {0.98, 0.7}, {0.98, 0.85}, {0.995, 0.7},
	}
	var series []stats.Series
	var notes []string
	for _, p := range pairs {
		pc := core.DefaultPipelineConfig()
		pc.Classifier.ThrSta = p.sta
		pc.Classifier.ThrEnv = p.env
		var cm core.ConfusionMatrix
		for _, mode := range mobility.AllModes {
			rng := cfg.rng(uint64(mode)*7 + uint64(p.sta*1e4) + uint64(p.env*1e3))
			for _, decisions := range parallel.RunTrials(runs, cfg.jobs(), func(r int) []core.Decision {
				scen := sceneFor(mode, r, dur, 1, rng.Split(uint64(r)))
				return core.RunScenario(scen, pc, cfg.Seed+uint64(r))
			}) {
				cm.Add(decisions, 6)
			}
		}
		diag := cm.Diagonal()
		avg := (diag[0] + diag[1] + diag[2] + diag[3]) / 4
		name := fmt.Sprintf("sta=%.3f env=%.2f", p.sta, p.env)
		series = append(series, stats.Series{Name: name,
			Points: []stats.Point{{X: 0, Y: avg}}})
		notes = append(notes, fmt.Sprintf("%s: mean accuracy %.1f%%", name, avg))
	}
	res := Result{
		ID:     "abl-thresholds",
		Title:  "Ablation: classification accuracy vs similarity thresholds",
		Series: series,
		Notes:  notes,
	}
	res.Text = renderKV(res.Title, kvFromNotes(notes))
	return res
}

func kvFromNotes(notes []string) [][2]string {
	rows := make([][2]string, len(notes))
	for i, n := range notes {
		rows[i] = [2]string{fmt.Sprintf("option %d", i+1), n}
	}
	return rows
}

// Ablation80211r compares roaming with the stock ~200 ms reassociation
// against 802.11r fast BSS transition (~40 ms), the paper's §9 suggestion
// for real-time traffic.
func Ablation80211r(cfg Config) Result {
	runs := cfg.scaleInt(8, 3)
	dur := cfg.scaleDur(40, 20)
	walks := crossFloorWalks(runs, dur, cfg.rng(2100))
	measure := func(handoffCost float64) (mbps, outage float64) {
		opt := sim.DefaultWLANOptions(false)
		opt.HandoffCost = handoffCost
		type walkRes struct{ mbps, outage float64 }
		var ms, outs []float64
		for _, w := range parallel.RunTrials(len(walks), cfg.jobs(), func(r int) walkRes {
			res := sim.RunRoaming(walks[r], roaming.NewMobilityAware(), opt, cfg.Seed+uint64(r))
			return walkRes{mbps: res.Mbps, outage: float64(res.Handoffs) * handoffCost}
		}) {
			ms = append(ms, w.mbps)
			outs = append(outs, w.outage)
		}
		return stats.Median(ms), stats.Mean(outs)
	}
	slowM, slowOut := measure(0.2)
	fastM, fastOut := measure(0.04)
	rows := [][2]string{
		{"stock handoff (200 ms)", fmt.Sprintf("%.1f Mbps, %.2f s outage per walk", slowM, slowOut)},
		{"802.11r (40 ms)", fmt.Sprintf("%.1f Mbps, %.2f s outage per walk", fastM, fastOut)},
	}
	res := Result{
		ID:    "abl-80211r",
		Title: "Ablation: motion-aware roaming with stock vs 802.11r handoff cost",
		Text:  renderKV("Ablation: motion-aware roaming with stock vs 802.11r handoff cost", rows),
	}
	res.Notes = append(res.Notes, fmt.Sprintf(
		"802.11r cuts per-walk outage from %.2f s to %.2f s (paper §9: 200 ms -> 40 ms)",
		slowOut, fastOut))
	return res
}

// AblationWidth reproduces the paper's §9 negative result: a narrower
// 20 MHz channel is individually more robust (per-subcarrier SNR is 3 dB
// higher at the same power), but its halved rate cancels the benefit —
// "our preliminary experiments did not show any significant gains".
func AblationWidth(cfg Config) Result {
	runs := cfg.scaleInt(8, 3)
	dur := cfg.scaleDur(16, 10)
	rng := cfg.rng(2200)
	measure := func(width phy.ChannelWidth) float64 {
		all := parallel.RunTrials(runs, cfg.jobs(), func(r int) float64 {
			mcfg := mobility.DefaultSceneConfig()
			mcfg.Duration = dur
			scen := mobility.NewMacroScenario(mobility.HeadingAway, mcfg, rng.Split(uint64(r)))
			chCfg := channel.DefaultConfig()
			chCfg.TxPowerDBm = 2
			if width == phy.Width20 {
				chCfg.BandwidthHz = 20e6
				chCfg.NoiseFloorDBm -= 3 // half the noise bandwidth
			}
			link := mac.NewLink(channel.New(chCfg, scen, stats.NewRNG(cfg.Seed+uint64(r))),
				stats.NewRNG(cfg.Seed+uint64(r)+9))
			link.Width = width
			lc := ratecontrol.LinkConfig{Width: width, SGI: true, MPDUBytes: 1500, MaxStreams: 2}
			return ratecontrol.Run(link, ratecontrol.NewAtheros(lc), dur).Mbps
		})
		return stats.Mean(all)
	}
	w40 := measure(phy.Width40)
	w20 := measure(phy.Width20)
	rows := [][2]string{
		{"40 MHz (paper's setting)", fmt.Sprintf("%.1f Mbps", w40)},
		{"20 MHz (robust-narrow)", fmt.Sprintf("%.1f Mbps", w20)},
	}
	res := Result{
		ID:    "abl-width",
		Title: "Ablation: channel width under macro-away mobility",
		Text:  renderKV("Ablation: channel width under macro-away mobility", rows),
	}
	res.Notes = append(res.Notes, fmt.Sprintf(
		"width adaptation gain would be %+.0f%% — the paper reports no significant gains (§9)",
		100*(w20/w40-1)))
	return res
}

// AblationQuantization sweeps the CSI feedback resolution for SU
// beamforming: coarser reports are cheaper on the air but mispoint the
// beam.
func AblationQuantization(cfg Config) Result {
	dur := cfg.scaleDur(8, 4)
	runs := cfg.scaleInt(4, 2)
	var pts []stats.Point
	var notes []string
	for _, bits := range []int{2, 3, 4, 6, 8} {
		all := parallel.RunTrials(runs, cfg.jobs(), func(r int) float64 {
			mcfg := mobility.DefaultSceneConfig()
			mcfg.Duration = dur + 2
			scen := mobility.NewScenario(mobility.Micro, mcfg, cfg.rng(2300+uint64(r)))
			ch := bfChannel(scen, cfg.Seed+uint64(r)*13)
			suCfg := beamforming.DefaultConfig()
			suCfg.FeedbackBits = bits
			return beamforming.RunSU(ch, beamforming.FixedFeedback{T: 10e-3}, nil, suCfg, dur).Mbps
		})
		pts = append(pts, stats.Point{X: float64(bits), Y: stats.Mean(all)})
		notes = append(notes, fmt.Sprintf("%d bits: %.1f Mbps", bits, stats.Mean(all)))
	}
	series := []stats.Series{{Name: "throughput", Points: pts}}
	res := Result{
		ID:     "abl-quant",
		Title:  "Ablation: SU-BF throughput vs CSI feedback quantization",
		XLabel: "bits/component",
		Series: series,
		Notes:  notes,
	}
	res.Text = renderSeries(res.Title, res.XLabel, series)
	return res
}

// AblationOrbit evaluates the §9 AoA extension on the circle limitation:
// fraction of decisions classifying an orbiting client as macro, for the
// base classifier vs the AoA-extended one.
func AblationOrbit(cfg Config) Result {
	runs := cfg.scaleInt(6, 3)
	dur := cfg.scaleDur(25, 15)
	warmup := 8.0
	type orbitRes struct{ base, ext float64 }
	var baseMacro, extMacro []float64
	orbitOne := func(r int) orbitRes {
		mcfg := mobility.DefaultSceneConfig()
		mcfg.Duration = dur
		scen := mobility.NewCircleScenario(mcfg, cfg.rng(2400+uint64(r)))

		// Base classifier.
		decisions := core.RunScenario(scen, core.DefaultPipelineConfig(), cfg.Seed+uint64(r))
		macro, total := 0, 0
		for _, d := range decisions {
			if d.Time < warmup {
				continue
			}
			total++
			if d.State.Mode() == mobility.Macro {
				macro++
			}
		}
		base := 100 * float64(macro) / float64(max(total, 1))

		// Extended classifier (manual pipeline with AoA).
		rng := stats.NewRNG(cfg.Seed + uint64(r))
		ch := channel.New(channel.DefaultConfig(), scen, rng.Split(1))
		meter := tof.NewMeter(tof.DefaultConfig(), rng.Split(2))
		cls := core.NewExtended(core.DefaultConfig(), channel.DefaultConfig().NTx)
		macro, total = 0, 0
		nextCSI, nextToF := 0.0, 0.0
		var csiBuf *csi.Matrix
		for tt := 0.0; tt < dur; tt += 0.01 {
			if tt >= nextCSI {
				s := ch.MeasureInto(tt, csiBuf)
				csiBuf = s.CSI
				cls.ObserveCSI(tt, s.CSI)
				nextCSI += cls.Config().CSISamplePeriod
				if tt >= warmup {
					total++
					if cls.State().Mode() == mobility.Macro {
						macro++
					}
				}
			}
			if tt >= nextToF {
				if cls.ToFActive() {
					cls.ObserveToF(tt, meter.Raw(ch.Distance(tt)))
				}
				nextToF += tof.SampleInterval
			}
		}
		return orbitRes{base: base, ext: 100 * float64(macro) / float64(max(total, 1))}
	}
	for _, o := range parallel.RunTrials(runs, cfg.jobs(), orbitOne) {
		baseMacro = append(baseMacro, o.base)
		extMacro = append(extMacro, o.ext)
	}
	rows := [][2]string{
		{"base classifier (CSI+ToF)", fmt.Sprintf("%.0f%% of orbit decisions macro", stats.Mean(baseMacro))},
		{"AoA-extended classifier", fmt.Sprintf("%.0f%% of orbit decisions macro", stats.Mean(extMacro))},
	}
	res := Result{
		ID:    "abl-orbit",
		Title: "Ablation: circle-around-AP limitation with and without the AoA extension (§9)",
		Text:  renderKV("Ablation: circle-around-AP limitation with and without the AoA extension (§9)", rows),
	}
	res.Notes = append(res.Notes, fmt.Sprintf(
		"AoA recovers the orbiting client: %.0f%% -> %.0f%% macro", stats.Mean(baseMacro), stats.Mean(extMacro)))
	return res
}

// AblationSched evaluates the §9 "scheduling client traffic taking
// movement into account" extension: a three-client cell (away-walker,
// toward-walker, static) under round-robin, airtime-fair, and the
// mobility-aware scheduler that drains receding clients before their
// channel collapses.
func AblationSched(cfg Config) Result {
	runs := cfg.scaleInt(6, 3)
	dur := cfg.scaleDur(14, 10)
	measure := func(mk func() sched.Policy) (total, fairness float64) {
		var ts, fs []float64
		for _, res := range parallel.RunTrials(runs, cfg.jobs(), func(r int) sched.Result {
			return sched.Run(sim.SchedCell(cfg.Seed+uint64(r)*13, dur), mk(),
				aggregation.Adaptive{}, dur)
		}) {
			ts = append(ts, res.TotalMbps)
			fs = append(fs, res.JainFairness)
		}
		return stats.Mean(ts), stats.Mean(fs)
	}
	rrT, rrF := measure(func() sched.Policy { return &sched.RoundRobin{} })
	afT, afF := measure(func() sched.Policy { return sched.AirtimeFair{} })
	maT, maF := measure(func() sched.Policy { return sched.MobilityAware{} })
	rows := [][2]string{
		{"round-robin", fmt.Sprintf("%.1f Mbps total, Jain %.2f", rrT, rrF)},
		{"airtime-fair", fmt.Sprintf("%.1f Mbps total, Jain %.2f", afT, afF)},
		{"mobility-aware", fmt.Sprintf("%.1f Mbps total, Jain %.2f", maT, maF)},
	}
	res := Result{
		ID:    "abl-sched",
		Title: "Ablation: mobility-aware downlink scheduling (paper §9 extension)",
		Text:  renderKV("Ablation: mobility-aware downlink scheduling (paper §9 extension)", rows),
	}
	res.Notes = append(res.Notes, fmt.Sprintf(
		"mobility-aware lifts cell throughput %+.1f%% over airtime-fair (fairness %.2f -> %.2f)",
		100*(maT/afT-1), afF, maF))
	return res
}
