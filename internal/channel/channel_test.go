package channel

import (
	"math"
	"testing"

	"mobiwlan/internal/csi"
	"mobiwlan/internal/geom"
	"mobiwlan/internal/mobility"
	"mobiwlan/internal/stats"
)

func model(mode mobility.Mode, seed uint64) *Model {
	scen := mobility.NewScenario(mode, mobility.DefaultSceneConfig(), stats.NewRNG(seed))
	return New(DefaultConfig(), scen, stats.NewRNG(seed+1000))
}

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Subcarriers != 52 || cfg.NTx != 3 || cfg.NRx != 2 {
		t.Fatalf("unexpected dims: %d subcarriers, %dx%d", cfg.Subcarriers, cfg.NTx, cfg.NRx)
	}
	lambda := cfg.Wavelength()
	if lambda < 0.05 || lambda > 0.053 {
		t.Fatalf("wavelength at 5.825 GHz = %v m", lambda)
	}
}

func TestResponseDeterministic(t *testing.T) {
	m1 := model(mobility.Static, 1)
	m2 := model(mobility.Static, 1)
	a := m1.Response(3.3)
	b := m2.Response(3.3)
	if rho := csi.TemporalCorrelation(a, b); rho < 1-1e-12 {
		t.Fatalf("same-seed responses differ: rho = %v", rho)
	}
}

func TestResponseShape(t *testing.T) {
	m := model(mobility.Static, 2)
	h := m.Response(0)
	if h.Subcarriers != 52 || h.NTx != 3 || h.NRx != 2 {
		t.Fatalf("bad response shape %dx%dx%d", h.Subcarriers, h.NTx, h.NRx)
	}
	if h.AvgPower() <= 0 {
		t.Fatal("zero channel power")
	}
}

func TestStaticChannelIsConstant(t *testing.T) {
	m := model(mobility.Static, 3)
	a := m.Response(0)
	b := m.Response(10)
	if rho := csi.TemporalCorrelation(a, b); rho < 1-1e-9 {
		t.Fatalf("static channel changed over time: rho = %v", rho)
	}
}

func TestDeviceMotionDecorrelatesChannel(t *testing.T) {
	// On a strong-LoS link the complex correlation retains a LoS floor,
	// but walking should still clearly degrade it relative to static, and
	// more displacement should degrade it more.
	// Sub-wavelength displacement keeps the channel strongly correlated;
	// beyond a wavelength or two it decays to a LoS-dominated floor (the
	// correlation is not monotone there, just clearly depressed).
	m := model(mobility.Macro, 4)
	a := m.Response(0)
	rhoTiny := csi.TemporalCorrelation(a, m.Response(0.005)) // ~7 mm = 0.14 wavelength
	rhoFar := csi.TemporalCorrelation(a, m.Response(1))      // ~1.4 m = 27 wavelengths
	if rhoTiny < 0.9 {
		t.Fatalf("7 mm of motion should barely decorrelate: rho = %v", rhoTiny)
	}
	if rhoFar > 0.9 {
		t.Fatalf("walking 1.4 m left channel highly correlated: rho = %v", rhoFar)
	}
}

func TestMeasureAddsNoise(t *testing.T) {
	m := model(mobility.Static, 5)
	a := m.Measure(0).CSI
	b := m.Measure(0).CSI
	rho := csi.TemporalCorrelation(a, b)
	if rho >= 1-1e-12 {
		t.Fatal("measurements are noise-free")
	}
	if rho < 0.99 {
		t.Fatalf("measurement noise too strong: rho = %v", rho)
	}
}

// TestMeasureNoiseMatchesGaussianDraws pins the CSI estimation noise to
// its definition: per entry, in storage order, Gaussian(0, sigma) for the
// real part and then the imaginary part, followed by the RSSI draw. Shapes
// below, at and above one noise chunk, over several calls, cover the spare
// NormFill carries between chunks, calls and the RSSI draw.
func TestMeasureNoiseMatchesGaussianDraws(t *testing.T) {
	for _, sub := range []int{7, 52, 130} {
		cfg := DefaultConfig()
		cfg.Subcarriers = sub
		scen := mobility.NewScenario(mobility.Macro, mobility.DefaultSceneConfig(), stats.NewRNG(3))
		m := New(cfg, scen, stats.NewRNG(9))
		twin := stats.NewRNG(9).Split(0x6e6f6973) // the Model's noise stream
		for call := 0; call < 5; call++ {
			tt := float64(call) * 0.01
			want := m.Response(tt)
			sigma := math.Sqrt(want.AvgPower()) * m.csiNoiseScale / math.Sqrt2
			data := want.Data()
			for i := range data {
				data[i] += complex(twin.Gaussian(0, sigma), twin.Gaussian(0, sigma))
			}
			got := m.Measure(tt).CSI.Data()
			for i := range data {
				if got[i] != data[i] {
					t.Fatalf("%d subcarriers, call %d, entry %d: %v, want %v", sub, call, i, got[i], data[i])
				}
			}
			twin.Gaussian(0, cfg.RSSINoiseDB)
		}
	}
}

func TestMeasureFields(t *testing.T) {
	m := model(mobility.Static, 6)
	s := m.Measure(2)
	if s.Time != 2 {
		t.Fatalf("Time = %v", s.Time)
	}
	if s.RSSIdBm > -20 || s.RSSIdBm < -95 {
		t.Fatalf("implausible RSSI %v dBm", s.RSSIdBm)
	}
	if s.SNRdB != s.RSSIdBm-m.cfg.NoiseFloorDBm {
		t.Fatalf("SNR inconsistent with RSSI")
	}
	if s.Distance <= 0 {
		t.Fatalf("Distance = %v", s.Distance)
	}
}

func TestDistanceTracksTrajectory(t *testing.T) {
	cfg := mobility.DefaultSceneConfig()
	scen := mobility.NewMacroScenario(mobility.HeadingAway, cfg, stats.NewRNG(7))
	m := New(DefaultConfig(), scen, stats.NewRNG(8))
	if m.Distance(10) <= m.Distance(0) {
		t.Fatal("distance should grow when walking away")
	}
	want := scen.Client.At(5).Dist(cfg.AP)
	if got := m.Distance(5); math.Abs(got-want) > 1e-9 {
		t.Fatalf("Distance = %v, want %v", got, want)
	}
}

func TestRSSIDecreasesWithDistanceOnAverage(t *testing.T) {
	// Build two static scenarios, then compare RSSI at 5 m vs 20 m using
	// a shared scatterer field by measuring the same model along an
	// away-walk at two times.
	cfg := mobility.DefaultSceneConfig()
	cfg.Duration = 30
	var near, far []float64
	for seed := uint64(0); seed < 12; seed++ {
		scen := mobility.NewMacroScenario(mobility.HeadingAway, cfg, stats.NewRNG(seed))
		m := New(DefaultConfig(), scen, stats.NewRNG(seed+99))
		near = append(near, m.MeanRSSI(0)) // ~3 m from AP
		far = append(far, m.MeanRSSI(12))  // ~20 m from AP
	}
	if stats.Mean(near) <= stats.Mean(far)+6 {
		t.Fatalf("RSSI near (%v) should clearly exceed RSSI far (%v)",
			stats.Mean(near), stats.Mean(far))
	}
}

func TestNewAtDifferentAPsSeeDifferentChannels(t *testing.T) {
	scen := mobility.NewScenario(mobility.Static, mobility.DefaultSceneConfig(), stats.NewRNG(9))
	m1 := NewAt(DefaultConfig(), geom.Pt(5, 5), scen, stats.NewRNG(10))
	m2 := NewAt(DefaultConfig(), geom.Pt(45, 25), scen, stats.NewRNG(10))
	if m1.Distance(0) == m2.Distance(0) {
		t.Skip("degenerate geometry")
	}
	if rho := csi.TemporalCorrelation(m1.Response(0), m2.Response(0)); rho > 0.9 {
		t.Fatalf("channels from different APs nearly identical: rho=%v", rho)
	}
}

// --- Calibration tests: the classifier-relevant separations ---

// similarityStream samples the link every tau seconds and returns the
// similarities of consecutive noisy CSI measurements.
func similarityStream(m *Model, tau, duration float64) []float64 {
	var sims []float64
	var prev *csi.Matrix
	for t := 0.0; t < duration; t += tau {
		cur := m.Measure(t).CSI
		if prev != nil {
			sims = append(sims, csi.Similarity(prev, cur))
		}
		prev = cur
	}
	return sims
}

func medianSimilarityForMode(t *testing.T, mode mobility.Mode, tau float64) float64 {
	t.Helper()
	var all []float64
	for seed := uint64(0); seed < 8; seed++ {
		m := model(mode, seed*13+uint64(mode)*101)
		all = append(all, similarityStream(m, tau, 10)...)
	}
	return stats.Median(all)
}

func TestSimilaritySeparatesStaticEnvironmentalDevice(t *testing.T) {
	const tau = 0.05 // the paper's 50 ms sampling period
	staticSim := medianSimilarityForMode(t, mobility.Static, tau)
	envSim := medianSimilarityForMode(t, mobility.Environmental, tau)
	microSim := medianSimilarityForMode(t, mobility.Micro, tau)
	macroSim := medianSimilarityForMode(t, mobility.Macro, tau)

	t.Logf("median similarity @50ms: static=%.4f env=%.4f micro=%.4f macro=%.4f",
		staticSim, envSim, microSim, macroSim)

	if staticSim < 0.98 {
		t.Errorf("static similarity %.4f, want > 0.98 (Thr_sta)", staticSim)
	}
	if envSim >= staticSim {
		t.Errorf("environmental similarity %.4f should be below static %.4f", envSim, staticSim)
	}
	if envSim < 0.70 || envSim > 0.985 {
		t.Errorf("environmental similarity %.4f outside (Thr_env, Thr_sta) band", envSim)
	}
	if microSim > 0.70 {
		t.Errorf("micro similarity %.4f, want < 0.70 (Thr_env)", microSim)
	}
	if macroSim > 0.70 {
		t.Errorf("macro similarity %.4f, want < 0.70 (Thr_env)", macroSim)
	}
}

func TestMicroAndMacroIndistinguishableByCSI(t *testing.T) {
	// Paper Fig. 2(b): the micro and macro similarity distributions
	// overlap heavily. Check the medians are close.
	const tau = 0.05
	microSim := medianSimilarityForMode(t, mobility.Micro, tau)
	macroSim := medianSimilarityForMode(t, mobility.Macro, tau)
	if math.Abs(microSim-macroSim) > 0.35 {
		t.Errorf("micro (%.3f) and macro (%.3f) similarities too far apart — CSI should not separate them", microSim, macroSim)
	}
}

func TestSimilarityDropsWithSamplingPeriod(t *testing.T) {
	// Paper Fig. 2(a): similarity decreases as tau grows for mobile
	// scenarios.
	m := model(mobility.Micro, 77)
	fast := stats.Median(similarityStream(m, 0.01, 8))
	m2 := model(mobility.Micro, 77)
	slow := stats.Median(similarityStream(m2, 0.3, 8))
	if fast <= slow {
		t.Errorf("similarity @10ms (%.3f) should exceed @300ms (%.3f)", fast, slow)
	}
}

func TestShadowFieldProperties(t *testing.T) {
	f := newShadowField(3, 8, stats.NewRNG(11))
	// Deterministic.
	if f.at(geom.Pt(3, 4)) != f.at(geom.Pt(3, 4)) {
		t.Fatal("shadow field not deterministic")
	}
	// Roughly zero-mean with stddev near sigma over many positions.
	rng := stats.NewRNG(12)
	var vals []float64
	for i := 0; i < 4000; i++ {
		vals = append(vals, f.at(geom.Pt(rng.Range(0, 200), rng.Range(0, 200))))
	}
	if m := stats.Mean(vals); math.Abs(m) > 0.5 {
		t.Errorf("shadow mean = %v, want ~0", m)
	}
	if s := stats.StdDev(vals); s < 1.5 || s > 4.5 {
		t.Errorf("shadow stddev = %v, want ~3", s)
	}
	// Smooth: nearby points are similar.
	d := math.Abs(f.at(geom.Pt(10, 10)) - f.at(geom.Pt(10.1, 10)))
	if d > 1 {
		t.Errorf("shadow field too rough: delta over 10cm = %v dB", d)
	}
}

func TestShadowFieldDisabled(t *testing.T) {
	f := newShadowField(0, 8, stats.NewRNG(13))
	if f.at(geom.Pt(1, 2)) != 0 {
		t.Fatal("disabled shadow field should return 0")
	}
}

func TestRSSIQuantization(t *testing.T) {
	m := model(mobility.Static, 14)
	s := m.Measure(0)
	if q := m.cfg.RSSIQuantDB; q > 0 {
		r := s.RSSIdBm / q
		if math.Abs(r-math.Round(r)) > 1e-9 {
			t.Fatalf("RSSI %v not quantized to %v dB", s.RSSIdBm, q)
		}
	}
}

func BenchmarkResponse(b *testing.B) {
	m := model(mobility.Macro, 42)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = m.Response(float64(i%1000) * 0.02)
	}
}

func BenchmarkMeasure(b *testing.B) {
	m := model(mobility.Macro, 42)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = m.Measure(float64(i%1000) * 0.02)
	}
}

// TestZeroValueConfigKeepsLoSPath pins the zero-value-Config behaviour that
// used to be patched up inside every Response call and is now resolved once
// in NewAt: a Config{} with dimensions but no LoSGain and no
// PathLossExponent gets the implicit unit LoS gain, while an explicit
// pure-NLOS setup (LoSGain 0 with a real path-loss exponent) stays dark.
func TestZeroValueConfigKeepsLoSPath(t *testing.T) {
	scfg := mobility.DefaultSceneConfig()
	scfg.StaticScatterers = 0
	scfg.MovingScatterers = 0
	scen := mobility.NewScenario(mobility.Static, scfg, stats.NewRNG(9))
	scen.Scatterers = nil // drop the implicit wall reflectors: LoS only

	zero := Config{Subcarriers: 8, NTx: 2, NRx: 1, CarrierHz: 5.825e9, BandwidthHz: 40e6}
	h := New(zero, scen, stats.NewRNG(10)).Response(0)
	if h.AvgPower() == 0 {
		t.Fatal("zero-value Config should imply a unit-gain LoS path, got an all-zero response")
	}

	nlos := zero
	nlos.PathLossExponent = 3.5
	if h := New(nlos, scen, stats.NewRNG(10)).Response(0); h.AvgPower() != 0 {
		t.Fatalf("explicit pure-NLOS config (no scatterers) should have zero response, got power %v", h.AvgPower())
	}
}

// TestResponseIntoMatchesResponse pins the buffer-reuse contract: passing a
// warm buffer back in reproduces the fresh-allocation result bit-for-bit,
// and a wrong-shaped buffer panics rather than silently reallocating.
func TestResponseIntoMatchesResponse(t *testing.T) {
	m := model(mobility.Macro, 31)
	var buf *csi.Matrix
	for i := 0; i < 5; i++ {
		tt := float64(i) * 0.37
		want := m.Response(tt)
		buf = m.ResponseInto(tt, buf)
		wd, bd := want.Data(), buf.Data()
		for k := range wd {
			if wd[k] != bd[k] {
				t.Fatalf("t=%v entry %d: fresh %v vs reused %v", tt, k, wd[k], bd[k])
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ResponseInto with a wrong-shaped buffer should panic")
		}
	}()
	m.ResponseInto(0, csi.NewMatrix(1, 1, 1))
}
