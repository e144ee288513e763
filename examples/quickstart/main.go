// Quickstart: classify a walking client's mobility from PHY-layer
// information only, exactly as an AP running this library would.
//
//	go run ./examples/quickstart
//
// A simulated client stands still for 10 s, fidgets with the phone for
// 10 s, then walks away from the AP. The classifier sees only CSI
// snapshots and ToF readings — no sensors, no client cooperation — and
// prints its decisions as they change.
package main

import (
	"fmt"

	"mobiwlan/internal/channel"
	"mobiwlan/internal/core"
	"mobiwlan/internal/geom"
	"mobiwlan/internal/mobility"
	"mobiwlan/internal/stats"
	"mobiwlan/internal/tof"
)

// phasedTrajectory stitches static -> micro -> macro phases together.
type phasedTrajectory struct {
	spot  geom.Point
	micro mobility.Trajectory
	walk  mobility.Trajectory
}

func (p phasedTrajectory) At(t float64) geom.Point {
	switch {
	case t < 10:
		return p.spot
	case t < 20:
		return p.micro.At(t - 10)
	default:
		return p.walk.At(t - 20)
	}
}

//mobilint:stdout example walkthroughs narrate their results on stdout
func main() {
	rng := stats.NewRNG(7)

	// Build the scene: a 50x30 m office with an AP and a client 6 m away.
	cfg := mobility.DefaultSceneConfig()
	cfg.Duration = 40
	scen := mobility.NewScenario(mobility.Static, cfg, rng)
	spot := cfg.AP.Add(geom.Vec(6, 0))
	away := cfg.AP.Add(geom.Vec(24, 0))
	scen.Client = phasedTrajectory{
		spot:  spot,
		micro: mobility.NewConfinedJitter(spot, 0.5, 0.8, rng.Split(1)),
		walk:  mobility.WaypointWalk{Path: geom.NewPath(spot, away), Speed: 1.4},
	}

	// Wire the AP's measurement plane: the channel produces CSI snapshots,
	// the ToF meter timestamps data-ACK exchanges.
	link := channel.New(channel.DefaultConfig(), scen, rng.Split(2))
	meter := tof.NewMeter(tof.DefaultConfig(), rng.Split(3))
	cls := core.New(core.DefaultConfig())

	fmt.Println("time   classifier state   (ground truth: 0-10s static, 10-20s micro, 20-40s walking away)")
	last := core.StateUnknown
	nextCSI, nextToF := 0.0, 0.0
	for t := 0.0; t < cfg.Duration; t += 0.01 {
		if t >= nextCSI {
			cls.ObserveCSI(t, link.Measure(t).CSI)
			nextCSI += cls.Config().CSISamplePeriod
		}
		if t >= nextToF {
			if cls.ToFActive() {
				cls.ObserveToF(t, meter.Raw(link.Distance(t)))
			}
			nextToF += tof.SampleInterval
		}
		if s := cls.State(); s != last {
			fmt.Printf("%5.1fs  %s\n", t, s)
			last = s
		}
	}
	fmt.Printf("\nfinal state: %s (CSI similarity %.3f)\n", cls.State(), cls.Similarity())
}
