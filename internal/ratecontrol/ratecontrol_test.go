package ratecontrol

import (
	"testing"

	"mobiwlan/internal/channel"
	"mobiwlan/internal/core"
	"mobiwlan/internal/csi"
	"mobiwlan/internal/mac"
	"mobiwlan/internal/mobility"
	"mobiwlan/internal/phy"
	"mobiwlan/internal/stats"
)

func testLink(mode mobility.Mode, seed uint64) *mac.Link {
	cfg := mobility.DefaultSceneConfig()
	cfg.Duration = 120
	scen := mobility.NewScenario(mode, cfg, stats.NewRNG(seed))
	ch := channel.New(channel.DefaultConfig(), scen, stats.NewRNG(seed+1))
	return mac.NewLink(ch, stats.NewRNG(seed+2))
}

func TestCandidateRatesLadder(t *testing.T) {
	lc := DefaultLinkConfig()
	ladder := candidateRates(lc)
	// 16 usable (2-stream) minus skipped {5,6,7,8} = 12, minus the two
	// equal-rate duplicates (60 and 90 Mb/s appear for both stream counts).
	if len(ladder) != 10 {
		t.Fatalf("ladder has %d rungs, want 10", len(ladder))
	}
	prev := -1.0
	for _, m := range ladder {
		r := m.RateMbps(lc.Width, lc.SGI)
		if r <= prev {
			t.Fatalf("ladder not ascending at %v", m)
		}
		prev = r
		if m.Index >= 5 && m.Index <= 8 {
			t.Fatalf("skipped MCS %d present in ladder", m.Index)
		}
	}
}

func TestAtherosStartsHigh(t *testing.T) {
	a := NewAtheros(DefaultLinkConfig())
	if a.CurrentIndex() != len(a.Ladder())-1 {
		t.Fatal("Atheros should start at the highest rate")
	}
	if a.Name() != "atheros" {
		t.Fatal("bad name")
	}
}

func TestAtherosDownshiftOnTotalLoss(t *testing.T) {
	a := NewAtheros(DefaultLinkConfig())
	top := a.Ladder()[a.CurrentIndex()]
	// A frame with zero deliveries and default params (0 retries) shifts
	// down immediately.
	a.OnResult(0, mac.FrameResult{MCS: top, NMPDU: 16, Delivered: 0, BlockAck: false})
	if a.CurrentIndex() != len(a.Ladder())-2 {
		t.Fatalf("index after total loss = %d", a.CurrentIndex())
	}
}

func TestAtherosRetriesBeforeDownshift(t *testing.T) {
	a := NewAtheros(DefaultLinkConfig())
	p := a.Params()
	p.RateRetries = 2
	a.SetParams(p)
	top := a.Ladder()[a.CurrentIndex()]
	start := a.CurrentIndex()
	fail := mac.FrameResult{MCS: top, NMPDU: 16, Delivered: 0, BlockAck: false}
	a.OnResult(0, fail)
	a.OnResult(0.01, fail)
	if a.CurrentIndex() != start {
		t.Fatal("should still be retrying at the current rate")
	}
	a.OnResult(0.02, fail)
	if a.CurrentIndex() != start-1 {
		t.Fatalf("index after retries exhausted = %d, want %d", a.CurrentIndex(), start-1)
	}
}

func TestAtherosPERMonotonicity(t *testing.T) {
	a := NewAtheros(DefaultLinkConfig())
	mid := 5
	m := a.Ladder()[mid]
	// Report heavy loss at a middle rate; all higher rates must now have
	// PER at least as high.
	a.OnResult(0, mac.FrameResult{MCS: m, NMPDU: 10, Delivered: 1, BlockAck: true})
	for j := mid + 1; j < len(a.per); j++ {
		if a.per[j].Value() < a.per[mid].Value()-1e-12 {
			t.Fatalf("PER monotonicity violated at rung %d", j)
		}
	}
}

func TestAtherosProbesHigherRate(t *testing.T) {
	a := NewAtheros(DefaultLinkConfig())
	// Walk down to a low rung first.
	for i := 0; i < 8; i++ {
		cur := a.Ladder()[a.CurrentIndex()]
		a.OnResult(float64(i)*0.001, mac.FrameResult{MCS: cur, NMPDU: 8, Delivered: 0, BlockAck: false})
	}
	low := a.CurrentIndex()
	// After the probe interval, SelectRate should offer the next rung up.
	m := a.SelectRate(10)
	if m.Index != a.Ladder()[low+1].Index {
		t.Fatalf("probe rate = %v, want rung %d", m, low+1)
	}
	// A successful probe with good PER moves up.
	a.OnResult(10.001, mac.FrameResult{MCS: m, NMPDU: 8, Delivered: 8, BlockAck: true})
	if a.CurrentIndex() != low+1 {
		t.Fatalf("index after successful probe = %d, want %d", a.CurrentIndex(), low+1)
	}
}

func TestAtherosProbeFailureStays(t *testing.T) {
	a := NewAtheros(DefaultLinkConfig())
	for i := 0; i < 8; i++ {
		cur := a.Ladder()[a.CurrentIndex()]
		a.OnResult(float64(i)*0.001, mac.FrameResult{MCS: cur, NMPDU: 8, Delivered: 0, BlockAck: false})
	}
	low := a.CurrentIndex()
	m := a.SelectRate(10)
	a.OnResult(10.001, mac.FrameResult{MCS: m, NMPDU: 8, Delivered: 0, BlockAck: false})
	if a.CurrentIndex() != low {
		t.Fatalf("failed probe should not move the rate (at %d, want %d)", a.CurrentIndex(), low)
	}
}

func TestAtherosConvergesToSustainableRate(t *testing.T) {
	link := testLink(mobility.Static, 1)
	a := NewAtheros(DefaultLinkConfig())
	res := Run(link, a, 3)
	if res.Mbps <= 0 {
		t.Fatal("no throughput on a static link")
	}
	// The converged rate should be decodable: its required SNR is at or
	// below the link's effective SNR plus slack.
	probe := link.Transmit(3, phy.ByIndex(0), 1)
	cur := a.Ladder()[a.CurrentIndex()]
	if phy.RequiredSNRdB(cur) > probe.EffSNRdB+6 {
		t.Fatalf("converged on %v needing %.1f dB but link has %.1f dB",
			cur, phy.RequiredSNRdB(cur), probe.EffSNRdB)
	}
}

func TestMobilityAwareStateSwitchesParams(t *testing.T) {
	m := NewMobilityAware(DefaultLinkConfig())
	m.SetState(core.StateStatic)
	if got := m.Inner().Params(); got != Table2[core.StateStatic] {
		t.Fatalf("static params = %+v", got)
	}
	m.SetState(core.StateMacroAway)
	if got := m.Inner().Params(); got != Table2[core.StateMacroAway] {
		t.Fatalf("away params = %+v", got)
	}
	if m.State() != core.StateMacroAway {
		t.Fatal("State not recorded")
	}
}

func TestTable2DesignRules(t *testing.T) {
	// The paper's stated design rules must hold in the parameter table.
	if Table2[core.StateStatic].Alpha >= Table2[core.StateMacroAway].Alpha {
		t.Error("static should weight history more (smaller alpha) than macro")
	}
	if Table2[core.StateMacroAway].RateRetries != 0 {
		t.Error("moving away must down-shift immediately (0 retries)")
	}
	if Table2[core.StateMacroToward].ProbeInterval >= Table2[core.StateMacroAway].ProbeInterval {
		t.Error("moving toward should probe more aggressively than moving away")
	}
	if Table2[core.StateStatic].RateRetries < 1 {
		t.Error("static should retry before down-shifting")
	}
}

func TestRapidSampleHintSwitching(t *testing.T) {
	r := NewRapidSample(DefaultLinkConfig())
	r.SetState(core.StateMicro)
	if !r.mobile {
		t.Fatal("micro should set the mobile hint")
	}
	r.SetState(core.StateStatic)
	if r.mobile {
		t.Fatal("static should clear the mobile hint")
	}
	r.SetState(core.StateMacroAway)
	if !r.mobile {
		t.Fatal("macro should set the mobile hint")
	}
}

func TestRapidSampleDropsOnFailureWhenMobile(t *testing.T) {
	r := NewRapidSample(DefaultLinkConfig())
	r.SetState(core.StateMacroAway)
	start := r.cur
	m := r.ladder[r.cur]
	r.OnResult(0, mac.FrameResult{MCS: m, NMPDU: 8, Delivered: 0, BlockAck: false})
	if r.cur != start-1 {
		t.Fatalf("cur = %d, want %d", r.cur, start-1)
	}
}

func TestSoftRateStepsOneNotch(t *testing.T) {
	s := NewSoftRate(DefaultLinkConfig())
	// Strong channel: steps up exactly one rung per frame.
	cur := s.cur
	s.OnResult(0, mac.FrameResult{MCS: s.ladder[cur], EffSNRdB: 40})
	if s.cur != cur+1 {
		t.Fatalf("SoftRate moved %d rungs, want 1", s.cur-cur)
	}
	// Weak channel: steps down.
	s.cur = 5
	s.OnResult(0, mac.FrameResult{MCS: s.ladder[5], EffSNRdB: -5})
	if s.cur != 4 {
		t.Fatalf("SoftRate should step down to 4, at %d", s.cur)
	}
}

func TestESNRJumpsDirectly(t *testing.T) {
	e := NewESNR(DefaultLinkConfig())
	m := csi.NewMatrix(52, 3, 2)
	m.Set(0, 0, 0, 1)
	res := mac.FrameResult{MCS: phy.ByIndex(0), EffSNRdB: 40, CSI: m}
	e.OnResult(0, res)
	got := e.SelectRate(0)
	if got.RateMbps(phy.Width40, true) < 200 {
		t.Fatalf("ESNR at 40 dB picked %v — should jump straight to a top rate", got)
	}
	// And straight back down.
	res.EffSNRdB = 3
	e.OnResult(1, res)
	if e.SelectRate(1).Index != e.ladder[0].Index {
		t.Fatalf("ESNR at 3 dB picked %v", e.SelectRate(1))
	}
}

func TestESNRIgnoresMissingCSI(t *testing.T) {
	e := NewESNR(DefaultLinkConfig())
	before := e.SelectRate(0)
	e.OnResult(0, mac.FrameResult{EffSNRdB: 40})
	if e.SelectRate(0) != before {
		t.Fatal("ESNR should ignore results without CSI")
	}
}

func TestRunProducesThroughput(t *testing.T) {
	link := testLink(mobility.Static, 11)
	res := Run(link, NewAtheros(DefaultLinkConfig()), 2)
	if res.Mbps <= 0 || res.Frames == 0 {
		t.Fatalf("Run = %+v", res)
	}
}

func TestMobilityAwareBeatsStockUnderMobility(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping slow simulation test in -short mode")
	}
	// The paper's headline §4 result, in miniature: on walking links the
	// motion-aware parameters should outperform (or at least match) stock
	// Atheros. Averaged over several seeds to damp variance.
	var stock, aware []float64
	for seed := uint64(0); seed < 5; seed++ {
		cfg := mobility.DefaultSceneConfig()
		cfg.Duration = 60
		scen := mobility.NewMacroScenario(mobility.HeadingToward, cfg, stats.NewRNG(seed*97+3))
		mkLink := func(s2 uint64) *mac.Link {
			ch := channel.New(channel.DefaultConfig(), scen, stats.NewRNG(s2))
			return mac.NewLink(ch, stats.NewRNG(s2+7))
		}
		stockRes := Run(mkLink(seed+100), NewAtheros(DefaultLinkConfig()), 12)
		ma := NewMobilityAware(DefaultLinkConfig())
		ma.SetState(core.StateMacroToward)
		awareRes := Run(mkLink(seed+100), ma, 12)
		stock = append(stock, stockRes.Mbps)
		aware = append(aware, awareRes.Mbps)
	}
	s, a := stats.Mean(stock), stats.Mean(aware)
	t.Logf("toward-walk throughput: stock=%.1f Mbps, motion-aware=%.1f Mbps", s, a)
	if a < s*0.95 {
		t.Fatalf("motion-aware (%.1f) clearly worse than stock (%.1f)", a, s)
	}
}
