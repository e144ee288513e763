package channel

import (
	"testing"

	"mobiwlan/internal/csi"
	"mobiwlan/internal/geom"
	"mobiwlan/internal/mobility"
	"mobiwlan/internal/stats"
)

// cachedAndUncached builds two identical models of the same scenario and
// seeds. Tests drive the cached one through ResponseInto/MeasureInto and
// the uncached one only through referenceInto (and sample), so every
// divergence between them is the cache's fault.
func cachedAndUncached(cfg Config, build func(rng *stats.RNG) *mobility.Scenario, seed uint64) (cached, uncached *Model) {
	cached = New(cfg, build(stats.NewRNG(seed)), stats.NewRNG(seed+1000))
	uncached = New(cfg, build(stats.NewRNG(seed)), stats.NewRNG(seed+1000))
	return cached, uncached
}

func requireSameBits(t *testing.T, label string, tt float64, a, b *csi.Matrix) {
	t.Helper()
	ad, bd := a.Data(), b.Data()
	for k := range ad {
		if ad[k] != bd[k] {
			t.Fatalf("%s t=%v entry %d: cached %v vs uncached %v", label, tt, k, ad[k], bd[k])
		}
	}
}

// TestCacheBitIdenticalAcrossModes is the headline equivalence test: for
// every mobility mode, a cached model reproduces an uncached model
// bit-for-bit over a time series that mixes repeated and advancing
// timestamps (repeats exercise the epoch fast path; advances exercise the
// per-path incremental one). Measurements are compared too — noisy CSI,
// RSSI and SNR all consume the noise RNG, so any cache-induced change to
// draw order would diverge here.
func TestCacheBitIdenticalAcrossModes(t *testing.T) {
	times := []float64{0, 0, 0.05, 0.05, 0.05, 0.1, 0.1, 0.73, 0.73, 0.75}
	for _, mode := range mobility.AllModes {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			build := func(rng *stats.RNG) *mobility.Scenario {
				return mobility.NewScenario(mode, mobility.DefaultSceneConfig(), rng)
			}
			mc, mu := cachedAndUncached(DefaultConfig(), build, 17+uint64(mode))
			var hc, hu *csi.Matrix
			for _, tt := range times {
				hc = mc.ResponseInto(tt, hc)
				hu = mu.referenceInto(tt, hu)
				requireSameBits(t, "response", tt, hc, hu)
			}
			var bc, bu *csi.Matrix
			for _, tt := range times {
				sc := mc.MeasureInto(tt, bc)
				ref := mu.referenceInto(tt, bu)
				su := mu.sample(tt, ref, ref.AvgPower())
				bc, bu = sc.CSI, su.CSI
				requireSameBits(t, "measure", tt, sc.CSI, su.CSI)
				if sc.RSSIdBm != su.RSSIdBm || sc.SNRdB != su.SNRdB {
					t.Fatalf("t=%v: cached sample (rssi=%v snr=%v) vs uncached (rssi=%v snr=%v) — noise draw order changed",
						tt, sc.RSSIdBm, sc.SNRdB, su.RSSIdBm, su.SNRdB)
				}
			}
		})
	}
}

// TestCacheInvalidation drives the cache through each way its key can go
// stale and checks bit-identity against the uncached reference at every
// step: client motion (every path length changes), scatterer motion (one
// path per mover changes), shadow-field variation along a long walk, the
// length < 0.1 clamp (client parked on top of the AP), and both sides of
// the breakpoint path-loss branch.
func TestCacheInvalidation(t *testing.T) {
	scfg := mobility.DefaultSceneConfig()
	cases := []struct {
		name  string
		cfg   Config
		build func(rng *stats.RNG) *mobility.Scenario
		times []float64
	}{
		{
			name: "client-motion",
			cfg:  DefaultConfig(),
			build: func(rng *stats.RNG) *mobility.Scenario {
				return mobility.NewScenario(mobility.Macro, scfg, rng)
			},
			times: []float64{0, 0.02, 0.02, 1, 2, 2, 5},
		},
		{
			name: "scatterer-motion",
			cfg:  DefaultConfig(),
			build: func(rng *stats.RNG) *mobility.Scenario {
				return mobility.NewScenario(mobility.Environmental, scfg, rng)
			},
			times: []float64{0, 0.05, 0.05, 0.1, 3, 3, 3.05},
		},
		{
			name: "shadow-boundary",
			cfg:  DefaultConfig(),
			build: func(rng *stats.RNG) *mobility.Scenario {
				// A straight 40 m walk crosses several shadow-field
				// decorrelation lengths (8 m), so the wideband shadow gain
				// sweeps through distinct values.
				return mobility.NewMacroScenario(mobility.HeadingAway, scfg, rng)
			},
			times: []float64{0, 0, 2, 4, 8, 8, 16, 24},
		},
		{
			name: "length-clamp",
			cfg:  DefaultConfig(),
			build: func(rng *stats.RNG) *mobility.Scenario {
				// Client walks straight through the AP position: LoS length
				// passes below the 0.1 m clamp and out the other side.
				s := mobility.NewScenario(mobility.Static, scfg, rng)
				from := scfg.AP.Add(geom.Vec(-1, 0))
				to := scfg.AP.Add(geom.Vec(1, 0))
				s.Client = mobility.WaypointWalk{Path: geom.NewPath(from, to), Speed: 1}
				return s
			},
			times: []float64{0, 0.9, 1.0, 1.0, 1.001, 1.1, 2},
		},
		{
			name: "breakpoint-straddle",
			cfg:  DefaultConfig(), // PathLossBreakM 5, exponent 3.5 > 2
			build: func(rng *stats.RNG) *mobility.Scenario {
				// Walk from 2 m to 20 m from the AP: path lengths cross the
				// 5 m breakpoint, so both amp branches run within one trial.
				s := mobility.NewScenario(mobility.Static, scfg, rng)
				from := scfg.AP.Add(geom.Vec(2, 0))
				to := scfg.AP.Add(geom.Vec(20, 0))
				s.Client = mobility.WaypointWalk{Path: geom.NewPath(from, to), Speed: 2}
				return s
			},
			times: []float64{0, 0, 0.5, 1.5, 1.5, 4, 9, 9},
		},
		{
			name: "breakpoint-disabled",
			cfg: func() Config {
				c := DefaultConfig()
				c.PathLossExponent = 2 // branch requires > 2: always off
				return c
			}(),
			build: func(rng *stats.RNG) *mobility.Scenario {
				return mobility.NewScenario(mobility.Macro, scfg, rng)
			},
			times: []float64{0, 0.5, 0.5, 3, 6},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			mc, mu := cachedAndUncached(tc.cfg, tc.build, 41)
			var hc, hu *csi.Matrix
			for _, tt := range tc.times {
				hc = mc.ResponseInto(tt, hc)
				hu = mu.referenceInto(tt, hu)
				requireSameBits(t, tc.name, tt, hc, hu)
			}
		})
	}
}

// TestCacheScattererAppearance mutates the scatterer set between calls —
// a path appears, then disappears — and checks the cached model resizes
// and re-keys instead of summing stale series.
func TestCacheScattererAppearance(t *testing.T) {
	build := func(rng *stats.RNG) *mobility.Scenario {
		return mobility.NewScenario(mobility.Static, mobility.DefaultSceneConfig(), rng)
	}
	mc, mu := cachedAndUncached(DefaultConfig(), build, 59)
	extra := mobility.ScattererTrack{Traj: mobility.Fixed(geom.Pt(12, 9)), Reflectivity: 0.6}

	var hc, hu *csi.Matrix
	step := func(tt float64) {
		t.Helper()
		hc = mc.ResponseInto(tt, hc)
		hu = mu.referenceInto(tt, hu)
		requireSameBits(t, "appearance", tt, hc, hu)
	}

	step(0)
	step(0) // warm epoch hit with the original path set

	for _, m := range []*Model{mc, mu} {
		m.scen.Scatterers = append(m.scen.Scatterers, extra)
	}
	step(0)
	step(0)

	for _, m := range []*Model{mc, mu} {
		m.scen.Scatterers = m.scen.Scatterers[:len(m.scen.Scatterers)-1]
	}
	step(0)
	step(0.5)
}

// TestCacheStatsCounters pins the cache's observable behaviour: a static
// scenario collapses to one evaluation per epoch, and an environmental
// one recomputes only the moving paths.
func TestCacheStatsCounters(t *testing.T) {
	t.Run("static-epoch-hits", func(t *testing.T) {
		m := model(mobility.Static, 7)
		var h *csi.Matrix
		for i := 0; i < 5; i++ {
			h = m.ResponseInto(3, h)
		}
		st := m.CacheStats()
		if st.Misses != 1 || st.Hits != 4 {
			t.Fatalf("static repeat: hits=%d misses=%d, want 4/1", st.Hits, st.Misses)
		}
	})
	t.Run("environmental-partial-reuse", func(t *testing.T) {
		m := model(mobility.Environmental, 7)
		h := m.ResponseInto(0, nil)
		warm := m.CacheStats()
		h = m.ResponseInto(0.05, h) // movers advanced; client + statics unchanged
		st := m.CacheStats()
		nPairs := uint64(m.cfg.NTx * m.cfg.NRx)
		nPaths := uint64(1 + len(m.scen.Scatterers))
		evals := st.PathEvals - warm.PathEvals
		if st.PathReuses == 0 {
			t.Fatal("environmental step reused no paths")
		}
		if evals == 0 || evals >= nPairs*nPaths {
			t.Fatalf("environmental step recomputed %d of %d chains, want a strict subset",
				evals, nPairs*nPaths)
		}
	})
}
