package sched_test

import (
	"testing"

	"mobiwlan/internal/aggregation"
	"mobiwlan/internal/core"
	"mobiwlan/internal/sched"
	"mobiwlan/internal/sim"
	"mobiwlan/internal/stats"
)

func TestRoundRobinCycles(t *testing.T) {
	rr := &sched.RoundRobin{}
	views := make([]sched.View, 3)
	for i := range views {
		views[i].Index = i
	}
	if rr.Pick(0, views) != 0 || rr.Pick(0, views) != 1 || rr.Pick(0, views) != 2 || rr.Pick(0, views) != 0 {
		t.Fatal("round robin does not cycle")
	}
}

func TestAirtimeFairPicksSmallestShare(t *testing.T) {
	views := []sched.View{
		{Index: 0, AirtimeShare: 0.5},
		{Index: 1, AirtimeShare: 0.2},
		{Index: 2, AirtimeShare: 0.3},
	}
	if got := (sched.AirtimeFair{}).Pick(0, views); got != 1 {
		t.Fatalf("Pick = %d, want 1", got)
	}
}

func TestMobilityAwarePrefersAwayClient(t *testing.T) {
	views := []sched.View{
		{Index: 0, State: core.StateMacroAway, RecentMbps: 50, AirtimeShare: 0.33},
		{Index: 1, State: core.StateMacroToward, RecentMbps: 50, AirtimeShare: 0.33},
		{Index: 2, State: core.StateStatic, RecentMbps: 50, AirtimeShare: 0.33},
	}
	if got := (sched.MobilityAware{}).Pick(0, views); got != 0 {
		t.Fatalf("Pick = %d, want the away-walker", got)
	}
}

func TestRunBasics(t *testing.T) {
	clients := sim.SchedCell(1, 8)
	res := sched.Run(clients, &sched.RoundRobin{}, nil, 8)
	if len(res.PerClientMbps) != 3 || res.TotalMbps <= 0 {
		t.Fatalf("result = %+v", res)
	}
	if res.JainFairness <= 0 || res.JainFairness > 1.000001 {
		t.Fatalf("fairness = %v", res.JainFairness)
	}
	for i, m := range res.PerClientMbps {
		if m <= 0 {
			t.Fatalf("client %d starved under round robin", i)
		}
	}
}

func TestRunEmpty(t *testing.T) {
	res := sched.Run(nil, &sched.RoundRobin{}, nil, 1)
	if res.TotalMbps != 0 {
		t.Fatal("empty run should be zero")
	}
}

func TestRunDeterministic(t *testing.T) {
	a := sched.Run(sim.SchedCell(2, 6), &sched.RoundRobin{}, nil, 6)
	b := sched.Run(sim.SchedCell(2, 6), &sched.RoundRobin{}, nil, 6)
	if a.TotalMbps != b.TotalMbps {
		t.Fatalf("same-seed runs differ: %v vs %v", a.TotalMbps, b.TotalMbps)
	}
}

func TestMobilityAwareBeatsFairOnCellTotal(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping slow simulation test in -short mode")
	}
	// Draining the away-walker early should lift total cell throughput
	// versus strict airtime fairness, averaged over seeds.
	var fair, aware []float64
	for seed := uint64(0); seed < 4; seed++ {
		duration := 14.0
		fair = append(fair, sched.Run(sim.SchedCell(seed*7+1, duration), sched.AirtimeFair{},
			aggregation.Adaptive{}, duration).TotalMbps)
		aware = append(aware, sched.Run(sim.SchedCell(seed*7+1, duration), sched.MobilityAware{},
			aggregation.Adaptive{}, duration).TotalMbps)
	}
	f, a := stats.Mean(fair), stats.Mean(aware)
	t.Logf("cell total: airtime-fair=%.1f Mbps mobility-aware=%.1f Mbps (%+.1f%%)", f, a, 100*(a/f-1))
	if a < f*0.98 {
		t.Fatalf("mobility-aware scheduling (%.1f) clearly below airtime-fair (%.1f)", a, f)
	}
}

func TestPolicyNames(t *testing.T) {
	if (&sched.RoundRobin{}).Name() != "round-robin" ||
		(sched.AirtimeFair{}).Name() != "airtime-fair" ||
		(sched.MobilityAware{}).Name() != "mobility-aware" {
		t.Fatal("policy names wrong")
	}
}

func TestMobilityAwareNeverStarves(t *testing.T) {
	clients := sim.SchedCell(9, 10)
	res := sched.Run(clients, sched.MobilityAware{}, aggregation.Adaptive{}, 10)
	for i, m := range res.PerClientMbps {
		if m <= 0 {
			t.Fatalf("client %d starved under mobility-aware scheduling: %v", i, res.PerClientMbps)
		}
	}
	if res.JainFairness < 0.4 {
		t.Fatalf("fairness collapsed: Jain %.2f", res.JainFairness)
	}
}

func TestMobilityAwareFloorServesStarved(t *testing.T) {
	views := []sched.View{
		{Index: 0, State: core.StateMacroAway, RecentMbps: 200, AirtimeShare: 0.9},
		{Index: 1, State: core.StateStatic, RecentMbps: 0, AirtimeShare: 0.05},
	}
	if got := (sched.MobilityAware{}).Pick(0, views); got != 1 {
		t.Fatalf("Pick = %d, want the starved client", got)
	}
}
