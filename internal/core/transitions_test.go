package core

import (
	"math"
	"testing"

	"mobiwlan/internal/csi"
)

// corrPair builds two synthetic CSI snapshots whose amplitude vectors have
// Pearson correlation exactly c (up to floating-point rounding): the first
// is offset + u, the second offset + c·u + sqrt(1-c²)·v, with u ⊥ v both
// zero-mean. Feeding them alternately holds csi.Similarity at c on every
// consecutive pair, which (with SimWindow=1) maps each observation directly
// onto the Fig. 5 thresholds.
func corrPair(c float64) (*csi.Matrix, *csi.Matrix) {
	a := csi.NewMatrix(52, 3, 2) // 312 entries, divisible by 4
	b := csi.NewMatrix(52, 3, 2)
	s := math.Sqrt(1 - c*c)
	da, db := a.Data(), b.Data()
	for i := range da {
		u := float64(1 - 2*(i%2))     // +1,-1,+1,-1,...  (zero mean)
		v := float64(1 - 2*((i/2)%2)) // +1,+1,-1,-1,...  (zero mean, u·v=0)
		da[i] = complex(10+u, 0)
		db[i] = complex(10+c*u+s*v, 0)
	}
	return a, b
}

// feedSim pushes `pairs` alternating a/b observations, each consecutive
// pair scoring similarity c.
func feedSim(cls *Classifier, t *float64, a, b *csi.Matrix, pairs int) {
	for i := 0; i < pairs; i++ {
		cls.ObserveCSI(*t, a)
		*t += 0.05
		cls.ObserveCSI(*t, b)
		*t += 0.05
	}
}

func oneSimClassifier() *Classifier {
	cfg := DefaultConfig()
	cfg.SimWindow = 1 // each observation maps directly onto the thresholds
	return New(cfg)
}

func TestCorrPairHitsTargetSimilarity(t *testing.T) {
	var ws csi.Workspace
	for _, c := range []float64{0.99, 0.9, 0.71, 0.69, 0.5, 0.1} {
		a, b := corrPair(c)
		if got := ws.Similarity(a, b); math.Abs(got-c) > 1e-12 {
			t.Fatalf("Similarity(corrPair(%v)) = %v", c, got)
		}
	}
}

// TestClassifierModeTransitions drives every CSI-decided mode→mode edge of
// the paper's Fig. 5 state machine: each case establishes one coarse state
// from its similarity regime, switches regimes, and asserts the new state.
func TestClassifierModeTransitions(t *testing.T) {
	const (
		simStatic = 0.995
		simEnv    = 0.90
		simMicro  = 0.50
	)
	cases := []struct {
		name       string
		sim1, sim2 float64
		st1, st2   State
	}{
		{"static_to_environmental", simStatic, simEnv, StateStatic, StateEnvironmental},
		{"static_to_micro", simStatic, simMicro, StateStatic, StateMicro},
		{"environmental_to_static", simEnv, simStatic, StateEnvironmental, StateStatic},
		{"environmental_to_micro", simEnv, simMicro, StateEnvironmental, StateMicro},
		{"micro_to_static", simMicro, simStatic, StateMicro, StateStatic},
		{"micro_to_environmental", simMicro, simEnv, StateMicro, StateEnvironmental},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cls := oneSimClassifier()
			now := 0.0
			a1, b1 := corrPair(tc.sim1)
			feedSim(cls, &now, a1, b1, 6)
			if cls.State() != tc.st1 {
				t.Fatalf("after %v regime: State = %v, want %v (sim %v)",
					tc.sim1, cls.State(), tc.st1, cls.Similarity())
			}
			wantToF := tc.st1 == StateMicro
			if cls.ToFActive() != wantToF {
				t.Fatalf("after %v regime: ToFActive = %v, want %v", tc.sim1, cls.ToFActive(), wantToF)
			}
			a2, b2 := corrPair(tc.sim2)
			feedSim(cls, &now, a2, b2, 6)
			if cls.State() != tc.st2 {
				t.Fatalf("after switch to %v: State = %v, want %v (sim %v)",
					tc.sim2, cls.State(), tc.st2, cls.Similarity())
			}
		})
	}
}

// TestClassifierThresholdBoundaries pins the decision on either side of
// ThrSta and ThrEnv: strictly-above semantics for both thresholds.
func TestClassifierThresholdBoundaries(t *testing.T) {
	cases := []struct {
		name string
		sim  float64
		want State
	}{
		{"just_above_ThrSta", 0.985, StateStatic},
		{"just_below_ThrSta", 0.975, StateEnvironmental},
		{"just_above_ThrEnv", 0.71, StateEnvironmental},
		{"just_below_ThrEnv", 0.69, StateMicro},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cls := oneSimClassifier()
			now := 0.0
			a, b := corrPair(tc.sim)
			feedSim(cls, &now, a, b, 6)
			if cls.State() != tc.want {
				t.Fatalf("sim %v: State = %v, want %v", tc.sim, cls.State(), tc.want)
			}
		})
	}
}

// TestToFStopHysteresis verifies that ToF collection survives short
// stationary spells and only stops after ToFStopHysteresis consecutive
// stationary decisions (Fig. 5's teardown guard).
func TestToFStopHysteresis(t *testing.T) {
	cls := oneSimClassifier()
	hyst := cls.Config().ToFStopHysteresis
	now := 0.0
	aM, bM := corrPair(0.5)
	feedSim(cls, &now, aM, bM, 4)
	if !cls.ToFActive() {
		t.Fatal("ToF should start under device mobility")
	}

	aS, bS := corrPair(0.995)
	// Crossing observation pairs the last micro snapshot with aS: since both
	// regimes share the same first matrix (offset+u), its similarity is still
	// the micro regime's 0.5 and resets the stationary streak one last time.
	cls.ObserveCSI(now, aS)
	now += 0.05
	for i := 1; i <= hyst; i++ {
		m := bS
		if i%2 == 0 {
			m = aS
		}
		cls.ObserveCSI(now, m)
		now += 0.05
		if cls.State() != StateStatic {
			t.Fatalf("stationary decision %d: State = %v, want static", i, cls.State())
		}
		wantActive := i < hyst
		if cls.ToFActive() != wantActive {
			t.Fatalf("after %d stationary decisions: ToFActive = %v, want %v",
				i, cls.ToFActive(), wantActive)
		}
	}

	// A fresh micro spell restarts collection with an empty trend window.
	feedSim(cls, &now, aM, bM, 1)
	if !cls.ToFActive() {
		t.Fatal("ToF should restart when device mobility resumes")
	}
	if cls.State() != StateMicro {
		t.Fatalf("restarted spell: State = %v, want micro (trend window must be empty)", cls.State())
	}
}

// TestHeadingFlipOnToFTrendReversal walks the ToF-decided macro edges:
// micro → macro-away on an increasing per-second median trend, a mixed
// window drops back to micro mid-reversal, macro-toward once the window is
// monotone decreasing, and a plateau (travel < ToFMinTravel) ends at micro.
func TestHeadingFlipOnToFTrendReversal(t *testing.T) {
	cls := oneSimClassifier()
	now := 0.0
	aM, bM := corrPair(0.5)
	feedSim(cls, &now, aM, bM, 4)
	if !cls.ToFActive() {
		t.Fatal("ToF should be active")
	}

	tofT := now
	second := func(v float64) {
		cls.ObserveToF(tofT+0.5, v)
		cls.ObserveToF(tofT+1.0, v)
		tofT += 1.0
	}

	for _, v := range []float64{100, 105, 110, 115, 120} {
		second(v)
	}
	if cls.State() != StateMacroAway {
		t.Fatalf("after increasing ToF medians: State = %v, want macro-away", cls.State())
	}

	// Reversal: the first reversed medians leave a mixed window (no trend →
	// micro), then the window turns monotone decreasing and the heading flips.
	var seq []State
	for _, v := range []float64{115, 110, 105, 100, 95} {
		second(v)
		seq = append(seq, cls.State())
	}
	if final := seq[len(seq)-1]; final != StateMacroToward {
		t.Fatalf("after decreasing ToF medians: State = %v (sequence %v), want macro-toward", final, seq)
	}
	sawMicro := false
	for _, s := range seq {
		if s == StateMicro {
			sawMicro = true
		}
		if s == StateMacroAway && sawMicro {
			t.Fatalf("state went back to macro-away mid-reversal: %v", seq)
		}
	}
	if !sawMicro {
		t.Fatalf("expected a no-trend micro interlude during the reversal, got %v", seq)
	}

	// Plateau: constant medians shrink first-to-last travel below
	// ToFMinTravel, so the macro heading expires back to micro.
	for i := 0; i < 6; i++ {
		second(95)
	}
	if cls.State() != StateMicro {
		t.Fatalf("after flat ToF medians: State = %v, want micro", cls.State())
	}
}
