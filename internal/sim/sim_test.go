package sim

import (
	"testing"

	"mobiwlan/internal/core"
	"mobiwlan/internal/geom"
	"mobiwlan/internal/mobility"
	"mobiwlan/internal/ratecontrol"
	"mobiwlan/internal/stats"
	"mobiwlan/internal/transport"
)

func makeScenario(mode mobility.Mode, seed uint64, duration float64) *mobility.Scenario {
	cfg := mobility.DefaultSceneConfig()
	cfg.Duration = duration
	return mobility.NewScenario(mode, cfg, stats.NewRNG(seed))
}

func TestRunLinkBasics(t *testing.T) {
	res := RunLink(makeScenario(mobility.Static, 1, 3), DefaultLinkOptions(), 42)
	if res.Mbps <= 0 || res.Frames == 0 || res.DeliveredMPDUs == 0 {
		t.Fatalf("RunLink = %+v", res)
	}
}

func TestRunLinkDeterministic(t *testing.T) {
	scen := makeScenario(mobility.Micro, 2, 3)
	a := RunLink(scen, DefaultLinkOptions(), 7)
	b := RunLink(scen, DefaultLinkOptions(), 7)
	if a.Mbps != b.Mbps || a.Frames != b.Frames {
		t.Fatalf("same-seed runs differ: %+v vs %+v", a, b)
	}
}

func TestRunLinkClassifierTracksState(t *testing.T) {
	scen := makeScenario(mobility.Static, 3, 6)
	opt := MotionAwareLinkOptions()
	res := RunLink(scen, opt, 9)
	staticTime := res.StateDurations[core.StateStatic]
	if staticTime < 3 {
		t.Fatalf("static scenario spent only %.1f s classified static", staticTime)
	}
}

func TestRunLinkOracleState(t *testing.T) {
	scen := makeScenario(mobility.Micro, 4, 4)
	opt := MotionAwareLinkOptions()
	opt.States = GroundTruth
	res := RunLink(scen, opt, 11)
	if res.StateDurations[core.StateMicro] < 3 {
		t.Fatalf("oracle state durations = %v", res.StateDurations)
	}
}

func TestRunLinkCBRSourceLimitsThroughput(t *testing.T) {
	scen := makeScenario(mobility.Static, 5, 4)
	opt := DefaultLinkOptions()
	opt.Source = &transport.CBR{RateMbps: 10, MPDUBytes: 1500}
	res := RunLink(scen, opt, 13)
	if res.Mbps > 12 {
		t.Fatalf("CBR 10 Mbps produced %.1f Mbps", res.Mbps)
	}
	if res.Mbps < 5 {
		t.Fatalf("CBR underdelivered: %.1f Mbps", res.Mbps)
	}
}

func TestRunLinkTCPSource(t *testing.T) {
	scen := makeScenario(mobility.Static, 6, 4)
	opt := DefaultLinkOptions()
	opt.Source = transport.NewTCPReno(1500)
	res := RunLink(scen, opt, 15)
	if res.Mbps <= 0 {
		t.Fatal("TCP source produced no throughput")
	}
}

func TestMotionAwareLinkOptionsWiring(t *testing.T) {
	opt := MotionAwareLinkOptions()
	if opt.States != Classifier {
		t.Fatal("classifier disabled")
	}
	if _, ok := opt.Adapter.(*ratecontrol.MobilityAware); !ok {
		t.Fatal("adapter is not mobility-aware")
	}
}

// crossFloorWalk walks past several APs of the default plan.
func crossFloorWalk(seed uint64, duration float64) *mobility.Scenario {
	cfg := mobility.DefaultSceneConfig()
	cfg.Duration = duration
	scen := mobility.NewScenario(mobility.Static, cfg, stats.NewRNG(seed))
	scen.Label = mobility.Macro
	scen.Client = mobility.WaypointWalk{
		Path:     geom.NewPath(geom.Pt(4, 7), geom.Pt(46, 7), geom.Pt(46, 23), geom.Pt(4, 23)),
		Speed:    1.4,
		PingPong: true,
	}
	return scen
}

func TestRunWLANBothStacks(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping slow simulation test in -short mode")
	}
	scen := crossFloorWalk(1, 20)
	def := RunWLAN(scen, DefaultWLANOptions(false), 21)
	aware := RunWLAN(scen, DefaultWLANOptions(true), 21)
	if def.Mbps <= 0 || aware.Mbps <= 0 {
		t.Fatalf("no throughput: default %.1f, aware %.1f", def.Mbps, aware.Mbps)
	}
	t.Logf("walk through 6-AP floor: default=%.1f Mbps (handoffs=%d) motion-aware=%.1f Mbps (handoffs=%d)",
		def.Mbps, def.Handoffs, aware.Mbps, aware.Handoffs)
}

func TestRunWLANDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping slow simulation test in -short mode")
	}
	scen := crossFloorWalk(2, 10)
	a := RunWLAN(scen, DefaultWLANOptions(true), 5)
	b := RunWLAN(scen, DefaultWLANOptions(true), 5)
	if a.Mbps != b.Mbps || a.Handoffs != b.Handoffs {
		t.Fatalf("same-seed WLAN runs differ: %+v vs %+v", a, b)
	}
}

func TestRunWLANMotionAwareAdvantage(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping slow simulation test in -short mode")
	}
	// The paper's §7 headline: the combined mobility-aware stack should
	// outperform the oblivious default on walks through the floor.
	var def, aware []float64
	for seed := uint64(0); seed < 3; seed++ {
		scen := crossFloorWalk(seed*5+3, 25)
		def = append(def, RunWLAN(scen, DefaultWLANOptions(false), seed+40).Mbps)
		aware = append(aware, RunWLAN(scen, DefaultWLANOptions(true), seed+40).Mbps)
	}
	d, a := stats.Mean(def), stats.Mean(aware)
	t.Logf("overall: default=%.1f Mbps motion-aware=%.1f Mbps (gain %.0f%%)", d, a, (a/d-1)*100)
	if a < d {
		t.Fatalf("motion-aware stack (%.1f) worse than default (%.1f)", a, d)
	}
}

func TestRunLinkGoodputNeverExceedsPHYRate(t *testing.T) {
	// Sanity invariant: delivered goodput cannot exceed the top PHY rate
	// (300 Mb/s for 2 streams at 40 MHz SGI).
	for _, mode := range mobility.AllModes {
		res := RunLink(makeScenario(mode, 77, 2), DefaultLinkOptions(), 5)
		if res.Mbps > 300 {
			t.Fatalf("%v: %.1f Mbps exceeds the PHY ceiling", mode, res.Mbps)
		}
	}
}

func TestRunWLANScanCostsThroughput(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping slow simulation test in -short mode")
	}
	// A pathological roaming policy that scans constantly must lose
	// throughput relative to never scanning.
	scen := crossFloorWalk(9, 12)
	normal := RunWLAN(scen, DefaultWLANOptions(false), 31)
	opt := DefaultWLANOptions(false)
	opt.ScanCost = 2.0 // absurd off-channel time per scan
	slow := RunWLAN(scen, opt, 31)
	if slow.Scans > 0 && slow.Mbps >= normal.Mbps {
		t.Fatalf("expensive scans did not reduce throughput: %.1f vs %.1f (scans=%d)",
			slow.Mbps, normal.Mbps, slow.Scans)
	}
}
