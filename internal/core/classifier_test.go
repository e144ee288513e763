package core

import (
	"testing"

	"mobiwlan/internal/csi"
	"mobiwlan/internal/mobility"
	"mobiwlan/internal/stats"
)

func TestDefaultConfigMatchesPaper(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.ThrSta != 0.98 {
		t.Errorf("ThrSta = %v, paper uses 0.98", cfg.ThrSta)
	}
	if cfg.ThrEnv != 0.70 {
		t.Errorf("ThrEnv = %v, paper uses 0.70", cfg.ThrEnv)
	}
	if cfg.ToFWindow != 4 {
		t.Errorf("ToFWindow = %v, paper uses a 4 s window", cfg.ToFWindow)
	}
	if cfg.CSISamplePeriod != 0.050 {
		t.Errorf("CSISamplePeriod = %v, paper uses 50 ms", cfg.CSISamplePeriod)
	}
}

func TestStateString(t *testing.T) {
	cases := []struct {
		s          State
		str, label string
	}{
		{StateUnknown, "unknown", "unknown"},
		{StateStatic, "static", "static"},
		{StateEnvironmental, "environmental", "environmental"},
		{StateMicro, "micro", "micro"},
		{StateMacroAway, "macro-away", "macro-away"},
		{StateMacroToward, "macro-toward", "macro-toward"},
		{StateMacroOrbit, "macro-orbit", "macro-orbit"},
		{-1, "unknown(-1)", "unknown"},
		{99, "unknown(99)", "unknown"},
	}
	for _, c := range cases {
		if got := c.s.String(); got != c.str {
			t.Errorf("%d.String() = %q, want %q", int(c.s), got, c.str)
		}
		if got := StateLabel(c.s); got != c.label {
			t.Errorf("StateLabel(%d) = %q, want %q", int(c.s), got, c.label)
		}
	}
}

func TestStateModeHeadingRoundTrip(t *testing.T) {
	cases := []struct {
		st State
		m  mobility.Mode
		h  mobility.Heading
	}{
		{StateStatic, mobility.Static, mobility.HeadingNone},
		{StateEnvironmental, mobility.Environmental, mobility.HeadingNone},
		{StateMicro, mobility.Micro, mobility.HeadingNone},
		{StateMacroAway, mobility.Macro, mobility.HeadingAway},
		{StateMacroToward, mobility.Macro, mobility.HeadingToward},
	}
	for _, c := range cases {
		if c.st.Mode() != c.m || c.st.Heading() != c.h {
			t.Errorf("%v: Mode/Heading = %v/%v, want %v/%v",
				c.st, c.st.Mode(), c.st.Heading(), c.m, c.h)
		}
		if got := StateFor(c.m, c.h); got != c.st {
			t.Errorf("StateFor(%v,%v) = %v, want %v", c.m, c.h, got, c.st)
		}
	}
	// Circling macro (no heading) maps to micro by design.
	if StateFor(mobility.Macro, mobility.HeadingNone) != StateMicro {
		t.Error("macro with no heading should map to micro (circle limitation)")
	}
}

// constantCSI and scaledCSI build synthetic snapshots with controlled
// similarity for unit-testing the state machine without a channel model.
func patternedCSI(seed uint64) *csi.Matrix {
	rng := stats.NewRNG(seed)
	m := csi.NewMatrix(52, 3, 2)
	for sc := 0; sc < 52; sc++ {
		for tx := 0; tx < 3; tx++ {
			for rx := 0; rx < 2; rx++ {
				m.Set(sc, tx, rx, complex(rng.NormFloat64(), rng.NormFloat64()))
			}
		}
	}
	return m
}

func TestClassifierStaticFromIdenticalCSI(t *testing.T) {
	c := New(DefaultConfig())
	if c.State() != StateUnknown {
		t.Fatal("fresh classifier should be unknown")
	}
	base := patternedCSI(1)
	for i := 0; i < 10; i++ {
		c.ObserveCSI(float64(i)*0.05, base)
	}
	if c.State() != StateStatic {
		t.Fatalf("State = %v, want static", c.State())
	}
	if c.ToFActive() {
		t.Fatal("ToF should not be collected for a static client")
	}
	if s := c.Similarity(); s < 0.99 {
		t.Fatalf("Similarity = %v", s)
	}
}

func TestClassifierDeviceMobilityFromRandomCSI(t *testing.T) {
	c := New(DefaultConfig())
	for i := 0; i < 10; i++ {
		c.ObserveCSI(float64(i)*0.05, patternedCSI(uint64(i)))
	}
	if c.State() != StateMicro {
		t.Fatalf("State = %v, want micro (device mobility, no ToF trend yet)", c.State())
	}
	if !c.ToFActive() {
		t.Fatal("ToF collection should start under device mobility")
	}
}

func TestClassifierEnvironmentalFromPartialChange(t *testing.T) {
	// Blend a fixed pattern with a varying one: similarity lands between
	// the thresholds.
	c := New(DefaultConfig())
	base := patternedCSI(1)
	for i := 0; i < 12; i++ {
		mix := base.Clone()
		noise := patternedCSI(uint64(100 + i))
		for sc := 0; sc < mix.Subcarriers; sc++ {
			for tx := 0; tx < mix.NTx; tx++ {
				for rx := 0; rx < mix.NRx; rx++ {
					mix.Set(sc, tx, rx, mix.At(sc, tx, rx)+0.28*noise.At(sc, tx, rx))
				}
			}
		}
		c.ObserveCSI(float64(i)*0.05, mix)
	}
	if c.State() != StateEnvironmental {
		t.Fatalf("State = %v (similarity %v), want environmental", c.State(), c.Similarity())
	}
	if c.ToFActive() {
		t.Fatal("ToF should not run for environmental mobility")
	}
}

func TestClassifierMacroAwayFromToFTrend(t *testing.T) {
	cfg := DefaultConfig()
	c := New(cfg)
	// Device mobility from CSI, then an increasing ToF ramp.
	tt := 0.0
	feedCSI := func() {
		c.ObserveCSI(tt, patternedCSI(uint64(tt*1000)))
	}
	for i := 0; i < 6; i++ {
		feedCSI()
		tt += 0.05
	}
	if !c.ToFActive() {
		t.Fatal("ToF should be active")
	}
	// 6 seconds of raw readings at 20 ms with a clear upward ramp
	// (1 cycle per second, above ToFMinTravel over the window).
	for i := 0; i < 300; i++ {
		c.ObserveToF(tt, 1000+tt*1.0)
		tt += 0.02
		if i%2 == 0 {
			feedCSI()
		}
	}
	if c.State() != StateMacroAway {
		t.Fatalf("State = %v, want macro-away", c.State())
	}
}

func TestClassifierMacroTowardFromToFTrend(t *testing.T) {
	c := New(DefaultConfig())
	tt := 0.0
	for i := 0; i < 6; i++ {
		c.ObserveCSI(tt, patternedCSI(uint64(i)))
		tt += 0.05
	}
	for i := 0; i < 300; i++ {
		c.ObserveToF(tt, 1000-tt*1.0)
		tt += 0.02
		if i%2 == 0 {
			c.ObserveCSI(tt, patternedCSI(uint64(1000+i)))
		}
	}
	if c.State() != StateMacroToward {
		t.Fatalf("State = %v, want macro-toward", c.State())
	}
}

func TestClassifierMicroWhenToFFlat(t *testing.T) {
	c := New(DefaultConfig())
	tt := 0.0
	rng := stats.NewRNG(3)
	for i := 0; i < 6; i++ {
		c.ObserveCSI(tt, patternedCSI(uint64(i)))
		tt += 0.05
	}
	for i := 0; i < 400; i++ {
		c.ObserveToF(tt, 1000+rng.Gaussian(0, 0.4))
		tt += 0.02
		if i%2 == 0 {
			c.ObserveCSI(tt, patternedCSI(uint64(2000+i)))
		}
	}
	if c.State() != StateMicro {
		t.Fatalf("State = %v, want micro", c.State())
	}
}

func TestClassifierStopsToFWhenStaticAgain(t *testing.T) {
	c := New(DefaultConfig())
	tt := 0.0
	for i := 0; i < 6; i++ {
		c.ObserveCSI(tt, patternedCSI(uint64(i)))
		tt += 0.05
	}
	if !c.ToFActive() {
		t.Fatal("ToF should be active under device mobility")
	}
	// Back to a frozen channel: similarity rises; after the stop
	// hysteresis (10 consecutive stationary decisions) ToF stops.
	base := patternedCSI(42)
	for i := 0; i < 25; i++ {
		c.ObserveCSI(tt, base)
		tt += 0.05
	}
	if c.ToFActive() {
		t.Fatal("ToF should stop once CSI indicates a stationary client")
	}
	if c.State() != StateStatic {
		t.Fatalf("State = %v, want static", c.State())
	}
}

func TestObserveToFIgnoredWhenInactive(t *testing.T) {
	c := New(DefaultConfig())
	// Never saw CSI: ToF inactive, readings dropped silently.
	for i := 0; i < 100; i++ {
		c.ObserveToF(float64(i)*0.02, 1000+float64(i))
	}
	if c.State() != StateUnknown {
		t.Fatalf("State = %v, want unknown", c.State())
	}
}

func TestConfigSanitization(t *testing.T) {
	c := New(Config{SimWindow: 0, ToFWindow: 0})
	if c.cfg.SimWindow < 1 || c.cfg.ToFWindow < 2 {
		t.Fatal("New did not sanitize degenerate windows")
	}
}

func TestSimilarityBeforeAnyPair(t *testing.T) {
	c := New(DefaultConfig())
	c.ObserveCSI(0, patternedCSI(1))
	if c.Similarity() != 0 {
		t.Fatal("Similarity before a pair should be 0")
	}
	if c.State() != StateUnknown {
		t.Fatal("single CSI snapshot should not classify")
	}
}
