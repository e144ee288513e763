package aggregation

import (
	"testing"

	"mobiwlan/internal/core"
	"mobiwlan/internal/phy"
)

func TestFixedPolicy(t *testing.T) {
	f := Fixed{Limit: 4e-3}
	if f.Name() != "fixed" {
		t.Fatal("bad name")
	}
	for _, s := range []core.State{core.StateStatic, core.StateMacroAway} {
		if f.AggregationTime(s) != 4e-3 {
			t.Fatalf("fixed limit varies with state %v", s)
		}
	}
}

func TestAdaptiveTableMatchesPaper(t *testing.T) {
	a := Adaptive{}
	if a.Name() != "mobility-adaptive" {
		t.Fatal("bad name")
	}
	if a.AggregationTime(core.StateStatic) != 8e-3 {
		t.Error("static limit should be 8 ms")
	}
	if a.AggregationTime(core.StateEnvironmental) != 8e-3 {
		t.Error("environmental limit should be 8 ms")
	}
	for _, s := range []core.State{core.StateMicro, core.StateMacroAway, core.StateMacroToward} {
		if a.AggregationTime(s) != 2e-3 {
			t.Errorf("%v limit should be 2 ms", s)
		}
	}
}

// TestAdaptiveFallback pins the limit for a state AdaptiveTable does not
// list: the stock 4 ms.
func TestAdaptiveFallback(t *testing.T) {
	if got := (Adaptive{}).AggregationTime(core.State(-1)); got != 4e-3 {
		t.Fatalf("unlisted state limit = %v, want 4 ms", got)
	}
}

func TestMPDUsScalesWithRateAndState(t *testing.T) {
	a := Adaptive{}
	high := phy.ByIndex(15)
	low := phy.ByIndex(0)
	// Static 8 ms at a high rate hits the 64-MPDU cap; mobile 2 ms fits
	// fewer subframes.
	staticN := MPDUs(a, core.StateStatic, high, phy.Width40, true, 1500)
	mobileN := MPDUs(a, core.StateMacroAway, high, phy.Width40, true, 1500)
	if staticN != 64 {
		t.Fatalf("static high-rate MPDUs = %d, want 64", staticN)
	}
	if mobileN >= staticN {
		t.Fatalf("mobile MPDUs (%d) should be below static (%d)", mobileN, staticN)
	}
	// At a low rate even 8 ms fits only a handful.
	if n := MPDUs(a, core.StateStatic, low, phy.Width40, false, 1500); n > 8 {
		t.Fatalf("low-rate MPDUs = %d", n)
	}
}
