package aoa

import (
	"math"
	"testing"

	"mobiwlan/internal/channel"
	"mobiwlan/internal/csi"
	"mobiwlan/internal/geom"
	"mobiwlan/internal/mobility"
	"mobiwlan/internal/stats"
)

// syntheticArrayCSI builds a noise-free plane-wave CSI snapshot arriving
// from angle theta (broadside = 0) at a half-wavelength 3-element array.
func syntheticArrayCSI(theta float64, subc int) *csi.Matrix {
	m := csi.NewMatrix(subc, 3, 1)
	for sc := 0; sc < subc; sc++ {
		// Per-subcarrier random-ish common phase, same arrival angle.
		common := complex(math.Cos(float64(sc)), math.Sin(float64(sc)))
		for k := 0; k < 3; k++ {
			phase := 2 * math.Pi * 0.5 * math.Sin(theta) * float64(k)
			m.Set(sc, k, 0, common*complex(math.Cos(phase), math.Sin(phase)))
		}
	}
	return m
}

func TestEstimateRecoversPlaneWave(t *testing.T) {
	est := NewEstimator(3)
	for _, want := range []float64{-0.9, -0.4, 0, 0.3, 0.8} {
		got, peak := est.Estimate(syntheticArrayCSI(want, 52))
		if math.Abs(got-want) > 0.06 {
			t.Errorf("theta: got %.3f, want %.3f", got, want)
		}
		if peak <= 1 {
			t.Errorf("peak ratio %.2f should exceed 1 for a clean plane wave", peak)
		}
	}
}

func TestEstimateDegenerateInputs(t *testing.T) {
	est := NewEstimator(3)
	if th, p := est.Estimate(nil); th != 0 || p != 0 {
		t.Fatal("nil matrix should give zeros")
	}
	single := csi.NewMatrix(4, 1, 1)
	if th, p := est.Estimate(single); th != 0 || p != 0 {
		t.Fatal("single-antenna matrix should give zeros")
	}
	zero := csi.NewMatrix(4, 3, 1)
	if _, p := est.Estimate(zero); p != 0 {
		t.Fatal("zero matrix should give zero peak")
	}
}

// orbitChannel builds a channel for a client circling the AP.
func orbitChannel(seed uint64, dur float64) *channel.Model {
	cfg := mobility.DefaultSceneConfig()
	cfg.Duration = dur
	scen := mobility.NewCircleScenario(cfg, stats.NewRNG(seed))
	return channel.New(channel.DefaultConfig(), scen, stats.NewRNG(seed+3))
}

func TestBearingTracksOrbitingClient(t *testing.T) {
	ch := orbitChannel(1, 30)
	est := NewEstimator(3)
	// Bearings at 0 and 5 s should differ by roughly the orbital sweep
	// (1.4 m/s at 8 m radius = 0.175 rad/s), modulo estimator coarseness.
	th0, _ := est.Estimate(ch.ResponseInto(0, nil))
	th5, _ := est.Estimate(ch.ResponseInto(5, nil))
	if math.Abs(th5-th0) < 0.05 {
		t.Fatalf("orbiting client bearing barely moved: %.3f -> %.3f", th0, th5)
	}
}

func TestBearingTrackerDetectsOrbit(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping slow simulation test in -short mode")
	}
	detected := 0
	for seed := uint64(0); seed < 5; seed++ {
		ch := orbitChannel(seed*7+1, 30)
		tr := NewBearingTracker(3, 4)
		hit := false
		for i := 0; i < 30*20; i++ {
			tt := float64(i) * 0.05
			tr.Observe(tt, ch.Measure(tt).CSI)
			if tr.Sweeping() {
				hit = true
			}
		}
		if hit {
			detected++
		}
	}
	if detected < 4 {
		t.Fatalf("orbit detected in only %d/5 runs", detected)
	}
}

func TestBearingTrackerQuietOnMicro(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping slow simulation test in -short mode")
	}
	falsePos := 0
	for seed := uint64(0); seed < 5; seed++ {
		cfg := mobility.DefaultSceneConfig()
		cfg.Duration = 30
		scen := mobility.NewScenario(mobility.Micro, cfg, stats.NewRNG(seed*13+2))
		ch := channel.New(channel.DefaultConfig(), scen, stats.NewRNG(seed*13+5))
		tr := NewBearingTracker(3, 4)
		hits, total := 0, 0
		for i := 0; i < 30*20; i++ {
			tt := float64(i) * 0.05
			tr.Observe(tt, ch.Measure(tt).CSI)
			if i%20 == 19 {
				total++
				if tr.Sweeping() {
					hits++
				}
			}
		}
		if total > 0 && float64(hits)/float64(total) > 0.3 {
			falsePos++
		}
	}
	if falsePos > 1 {
		t.Fatalf("micro misread as orbiting in %d/5 runs", falsePos)
	}
}

func TestBearingTrackerQuietOnRadialWalk(t *testing.T) {
	// Walking straight away: distance changes, bearing does not.
	cfg := mobility.DefaultSceneConfig()
	cfg.Duration = 16
	scen := mobility.NewMacroScenario(mobility.HeadingAway, cfg, stats.NewRNG(3))
	ch := channel.New(channel.DefaultConfig(), scen, stats.NewRNG(4))
	tr := NewBearingTracker(3, 4)
	hits, total := 0, 0
	for i := 0; i < 16*20; i++ {
		tt := float64(i) * 0.05
		tr.Observe(tt, ch.Measure(tt).CSI)
		if i%20 == 19 && i > 5*20 {
			total++
			if tr.Sweeping() {
				hits++
			}
		}
	}
	if total > 0 && float64(hits)/float64(total) > 0.3 {
		t.Fatalf("radial walk misread as orbit in %d/%d checks", hits, total)
	}
}

func TestBearingTrackerReset(t *testing.T) {
	tr := NewBearingTracker(3, 3)
	for i := 0; i < 100; i++ {
		tr.Observe(float64(i)*0.05, syntheticArrayCSI(float64(i)*0.01, 16))
	}
	tr.Reset()
	if tr.Sweeping() {
		t.Fatal("Reset did not clear the tracker")
	}
}

var _ = geom.Pt // geometry helpers available for future array layouts
