package roaming

import (
	"testing"

	"mobiwlan/internal/core"
	"mobiwlan/internal/mobility"
)

func TestDefaultPlan(t *testing.T) {
	p := DefaultPlan()
	if len(p.APs) != 6 {
		t.Fatalf("plan has %d APs, want 6", len(p.APs))
	}
	bounds := mobility.DefaultSceneConfig().Bounds
	for i, ap := range p.APs {
		if !bounds.Contains(ap) {
			t.Fatalf("AP %d outside the floor: %v", i, ap)
		}
	}
}

func TestArgmax(t *testing.T) {
	if argmax([]float64{-80, -60, -70}) != 1 {
		t.Fatal("argmax misbehaves")
	}
}

func TestExpectedThroughputMonotone(t *testing.T) {
	prev := -1.0
	for snr := 0.0; snr <= 35; snr += 5 {
		tput := ExpectedThroughput(snr, 2)
		if tput < prev {
			t.Fatalf("throughput decreased at %v dB", snr)
		}
		prev = tput
	}
	if ExpectedThroughput(30, 2) <= 0 {
		t.Fatal("no throughput at 30 dB")
	}
}

func TestDefault80211StaysWhenStrong(t *testing.T) {
	d := NewDefault80211()
	act := d.Decide(Observation{Cur: 0, CurRSSI: -50})
	if act.StartScan || act.RoamTo >= 0 {
		t.Fatal("strong RSSI should not trigger anything")
	}
}

func TestDefault80211ScansAndRoamsWhenWeak(t *testing.T) {
	d := NewDefault80211()
	act := d.Decide(Observation{Cur: 0, CurRSSI: -80})
	if !act.StartScan {
		t.Fatal("weak RSSI should trigger a scan")
	}
	act = d.Decide(Observation{
		Cur: 0, CurRSSI: -80, ScanValid: true,
		ScanRSSI: []float64{-80, -55, -70},
	})
	if act.RoamTo != 1 {
		t.Fatalf("RoamTo = %d, want 1 (strongest)", act.RoamTo)
	}
}

func TestDefault80211StaysIfStrongest(t *testing.T) {
	d := NewDefault80211()
	d.Decide(Observation{Cur: 0, CurRSSI: -80})
	act := d.Decide(Observation{
		Cur: 0, CurRSSI: -80, ScanValid: true,
		ScanRSSI: []float64{-80, -85, -90},
	})
	if act.RoamTo >= 0 {
		t.Fatal("should stay when already on the strongest AP")
	}
}

func TestSensorHintScansWhenMobile(t *testing.T) {
	s := NewSensorHint()
	act := s.Decide(Observation{T: 5, Cur: 0, CurRSSI: -50, State: core.StateMacroAway})
	if !act.StartScan {
		t.Fatal("mobile client should scan periodically")
	}
	// Immediately after: within the scan interval, no new scan.
	s2 := NewSensorHint()
	s2.Decide(Observation{T: 5, Cur: 0, CurRSSI: -50, State: core.StateMacroAway})
	act = s2.Decide(Observation{T: 5.5, Cur: 0, CurRSSI: -50, State: core.StateMacroAway,
		ScanValid: true, ScanRSSI: []float64{-50, -60}})
	if act.StartScan {
		t.Fatal("should not scan again within the interval")
	}
}

func TestSensorHintStaticDoesNotScan(t *testing.T) {
	s := NewSensorHint()
	act := s.Decide(Observation{T: 100, Cur: 0, CurRSSI: -50, State: core.StateStatic})
	if act.StartScan {
		t.Fatal("static client should not scan")
	}
}

func TestSensorHintHysteresis(t *testing.T) {
	s := NewSensorHint()
	s.Decide(Observation{T: 5, Cur: 0, CurRSSI: -60, State: core.StateMicro})
	act := s.Decide(Observation{T: 5.1, Cur: 0, CurRSSI: -60, State: core.StateMicro,
		ScanValid: true, ScanRSSI: []float64{-60, -58.5}})
	if act.RoamTo >= 0 {
		t.Fatal("1.5 dB advantage is within hysteresis; should stay")
	}
}

func TestMobilityAwareRoamsOnlyWhenAwayWithCandidate(t *testing.T) {
	m := NewMobilityAware()
	obs := Observation{
		T: 10, Cur: 0,
		InfraRSSI:   []float64{-70, -68, -80},
		Approaching: []bool{false, true, false},
		State:       core.StateMacroAway,
	}
	act := m.Decide(obs)
	if act.RoamTo != 1 {
		t.Fatalf("RoamTo = %d, want 1", act.RoamTo)
	}
	// Static client: never roam, even with a better AP around.
	m2 := NewMobilityAware()
	obs.State = core.StateStatic
	if act := m2.Decide(obs); act.RoamTo >= 0 {
		t.Fatal("static client must not be roamed")
	}
	// Away but no approaching candidate: stay.
	m3 := NewMobilityAware()
	obs.State = core.StateMacroAway
	obs.Approaching = []bool{false, false, false}
	if act := m3.Decide(obs); act.RoamTo >= 0 {
		t.Fatal("no candidate should mean no roam")
	}
	// Candidate approaching but much weaker: stay.
	m4 := NewMobilityAware()
	obs.Approaching = []bool{false, false, true}
	if act := m4.Decide(obs); act.RoamTo >= 0 {
		t.Fatal("weak candidate should not trigger a roam")
	}
}

func TestMobilityAwareThrottled(t *testing.T) {
	m := NewMobilityAware()
	obs := Observation{
		T: 10, Cur: 0,
		InfraRSSI:   []float64{-70, -60},
		Approaching: []bool{false, true},
		State:       core.StateMacroAway,
	}
	if m.Decide(obs).RoamTo != 1 {
		t.Fatal("first roam should fire")
	}
	obs.T = 11
	if m.Decide(obs).RoamTo >= 0 {
		t.Fatal("second roam within MinInterval should be suppressed")
	}
}
