package sim

import (
	"testing"

	"mobiwlan/internal/geom"
	"mobiwlan/internal/mobility"
	"mobiwlan/internal/roaming"
	"mobiwlan/internal/stats"
)

// walkAcrossFloor builds a scenario walking from near AP0 toward AP2
// (a long horizontal walk across the plan).
func walkAcrossFloor(seed uint64, duration float64) *mobility.Scenario {
	cfg := mobility.DefaultSceneConfig()
	cfg.Duration = duration
	rng := stats.NewRNG(seed)
	scen := mobility.NewScenario(mobility.Static, cfg, rng) // scatterer field
	scen.Label = mobility.Macro
	scen.Client = mobility.WaypointWalk{
		Path:  geom.NewPath(geom.Pt(4, 7), geom.Pt(46, 7)),
		Speed: 1.4,
	}
	return scen
}

func TestRunRoamingBasics(t *testing.T) {
	res := RunRoaming(walkAcrossFloor(1, 20), roaming.NewDefault80211(), DefaultWLANOptions(false), 7)
	if res.Mbps <= 0 {
		t.Fatal("no throughput")
	}
}

func TestRunRoamingDeterministic(t *testing.T) {
	opt := DefaultWLANOptions(false)
	a := RunRoaming(walkAcrossFloor(2, 15), roaming.NewDefault80211(), opt, 9)
	b := RunRoaming(walkAcrossFloor(2, 15), roaming.NewDefault80211(), opt, 9)
	if a != b {
		t.Fatalf("same-seed runs differ: %+v vs %+v", a, b)
	}
}

func TestMotionAwareRoamsDuringCrossFloorWalk(t *testing.T) {
	// Walking 42 m across a 3-AP row must trigger at least one handoff
	// under the motion-aware policy, and its throughput should beat the
	// sticky default (which only roams below -75 dBm).
	opt := DefaultWLANOptions(false)
	var defMbps, awareMbps []float64
	handoffs := 0
	for seed := uint64(0); seed < 4; seed++ {
		scen := walkAcrossFloor(seed*7+3, 30)
		d := RunRoaming(scen, roaming.NewDefault80211(), opt, seed+100)
		a := RunRoaming(scen, roaming.NewMobilityAware(), opt, seed+100)
		defMbps = append(defMbps, d.Mbps)
		awareMbps = append(awareMbps, a.Mbps)
		handoffs += a.Handoffs
	}
	if handoffs == 0 {
		t.Fatal("motion-aware policy never roamed on a cross-floor walk")
	}
	dm, am := stats.Mean(defMbps), stats.Mean(awareMbps)
	t.Logf("cross-floor walk: default=%.1f Mbps motion-aware=%.1f Mbps (handoffs=%d)", dm, am, handoffs)
	if am < dm {
		t.Fatalf("motion-aware (%.1f) should beat sticky default (%.1f)", am, dm)
	}
}
