// MU-MIMO: a three-antenna AP serves three single-antenna clients at once
// with zero-forcing precoding — one client on a quiet desk, one fidgeting,
// one walking. Compares the stock fixed CSI feedback period against the
// paper's per-client mobility-adaptive sounding.
//
//	go run ./examples/mumimo
package main

import (
	"fmt"

	"mobiwlan/internal/beamforming"
	"mobiwlan/internal/channel"
	"mobiwlan/internal/core"
	"mobiwlan/internal/mobility"
	"mobiwlan/internal/stats"
)

//mobilint:stdout example walkthroughs narrate their results on stdout
func main() {
	const duration = 8.0
	modes := []mobility.Mode{mobility.Environmental, mobility.Micro, mobility.Macro}
	labels := []string{"desk (environmental)", "fidgeting (micro)", "walking (macro)"}

	build := func(adaptive bool) []beamforming.MUUser {
		chCfg := channel.DefaultConfig()
		chCfg.NRx = 1
		chCfg.TxPowerDBm = 4
		users := make([]beamforming.MUUser, 3)
		for i, mode := range modes {
			rng := stats.NewRNG(uint64(i)*31 + 5)
			mcfg := mobility.DefaultSceneConfig()
			mcfg.Duration = duration + 8
			mcfg.EnvIntensity = 0.4
			var scen *mobility.Scenario
			if mode == mobility.Macro {
				scen = mobility.NewMacroScenario(mobility.HeadingToward, mcfg, rng)
			} else {
				scen = mobility.NewScenario(mode, mcfg, rng)
			}
			u := beamforming.MUUser{
				Chan: channel.NewAt(chCfg, mcfg.AP, scen, rng.Split(9)),
			}
			if adaptive {
				// The AP classifies each client from its uplink CSI/ToF and
				// sounds it at the Table 2 period for its mobility state.
				u.Sched = beamforming.Adaptive{Table: beamforming.MUAdaptiveTable}
				u.StateAt = core.StateAt(core.RunScenario(scen, core.DefaultPipelineConfig(), uint64(i)+55))
			} else {
				u.Sched = beamforming.FixedFeedback{T: 20e-3}
			}
			users[i] = u
		}
		return users
	}

	def := beamforming.RunMU(build(false), beamforming.DefaultConfig(), duration)
	ada := beamforming.RunMU(build(true), beamforming.DefaultConfig(), duration)

	fmt.Printf("3x3 zero-forcing MU-MIMO, %.0f s of simultaneous downlink:\n\n", duration)
	fmt.Printf("%-22s %14s %18s\n", "client", "fixed 20 ms", "mobility-adaptive")
	for i, label := range labels {
		fmt.Printf("%-22s %10.1f Mbps %14.1f Mbps\n", label, def.PerUserMbps[i], ada.PerUserMbps[i])
	}
	fmt.Printf("%-22s %10.1f Mbps %14.1f Mbps\n", "total", def.TotalMbps, ada.TotalMbps)
	fmt.Printf("\nfeedback airtime: %.1f%% -> %.1f%%\n",
		100*def.FeedbackFraction, 100*ada.FeedbackFraction)
	fmt.Println("\nStale CSI from the walking client corrupts its own beam; the adaptive")
	fmt.Println("scheduler sounds it every 2 ms while leaving the desk client at 200 ms,")
	fmt.Println("spending feedback airtime only where precoding actually decays.")
}
