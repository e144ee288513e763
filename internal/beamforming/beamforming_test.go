package beamforming

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

	"mobiwlan/internal/channel"
	"mobiwlan/internal/core"
	"mobiwlan/internal/mobility"
	"mobiwlan/internal/stats"
)

func randCMatrix(n int, rng *stats.RNG) *CMatrix {
	m := &CMatrix{Rows: n, Cols: n, Data: make([]complex128, n*n)}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			m.Set(i, j, complex(rng.NormFloat64(), rng.NormFloat64()))
		}
	}
	return m
}

func identity(n int) *CMatrix {
	m := &CMatrix{Rows: n, Cols: n, Data: make([]complex128, n*n)}
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// TestInverseProperty checks gaussJordan's output against a product
// computed here: m times the inverse must be the identity.
func TestInverseProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%4) + 2 // 2..5
		m := randCMatrix(n, stats.NewRNG(seed))
		a := &CMatrix{Rows: n, Cols: n, Data: append([]complex128(nil), m.Data...)}
		inv := identity(n)
		if !gaussJordan(a, inv) {
			return true // singular draw; fine
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				var p complex128
				for k := 0; k < n; k++ {
					p += m.At(i, k) * inv.At(k, j)
				}
				want := complex128(0)
				if i == j {
					want = 1
				}
				if cmplx.Abs(p-want) > 1e-8 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestInverseSingular(t *testing.T) {
	zero := &CMatrix{Rows: 2, Cols: 2, Data: make([]complex128, 4)}
	if gaussJordan(zero, identity(2)) {
		t.Fatal("all-zero matrix reported invertible")
	}
	rank1 := &CMatrix{Rows: 2, Cols: 2, Data: []complex128{1, 2, 2, 4}}
	if gaussJordan(rank1, identity(2)) {
		t.Fatal("rank-1 matrix reported invertible")
	}
}

func TestZFWeightsNullInterference(t *testing.T) {
	// With perfect CSI, user i's signal through w_j (j != i) must vanish.
	rng := stats.NewRNG(2)
	rows := make([][]complex128, 3)
	for u := range rows {
		rows[u] = []complex128{
			complex(rng.NormFloat64(), rng.NormFloat64()),
			complex(rng.NormFloat64(), rng.NormFloat64()),
			complex(rng.NormFloat64(), rng.NormFloat64()),
		}
	}
	var solver ZFSolver
	w, ok := solver.WeightsInto(rows, nil)
	if !ok {
		t.Fatal("unexpected singular channel")
	}
	for u := 0; u < 3; u++ {
		for j := 0; j < 3; j++ {
			amp := cmplx.Abs(dot(rows[u], w[j]))
			if u == j && amp < 1e-6 {
				t.Fatalf("own-signal amplitude for user %d is zero", u)
			}
			if u != j && amp > 1e-8 {
				t.Fatalf("interference from stream %d at user %d = %v", j, u, amp)
			}
		}
	}
	// Unit-norm precoders.
	for j := 0; j < 3; j++ {
		if math.Abs(vecNorm(w[j])-1) > 1e-9 {
			t.Fatalf("precoder %d norm = %v", j, vecNorm(w[j]))
		}
	}
}

func TestZFWeightsRejectsNonSquare(t *testing.T) {
	rows := [][]complex128{{1, 2, 3}, {4, 5, 6}}
	var solver ZFSolver
	if _, ok := solver.WeightsInto(rows, nil); ok {
		t.Fatal("2 users x 3 antennas should be rejected")
	}
}

func TestSchedulers(t *testing.T) {
	f := FixedFeedback{T: 20e-3}
	if f.Period(core.StateStatic) != 20e-3 || f.Period(core.StateMacroAway) != 20e-3 {
		t.Fatal("fixed scheduler varies")
	}
	a := Adaptive{}
	if a.Period(core.StateStatic) <= a.Period(core.StateMacroAway) {
		t.Fatal("static should sound less often than macro")
	}
	mu := Adaptive{Table: MUAdaptiveTable}
	if mu.Period(core.StateMacroAway) > a.Period(core.StateMacroAway) {
		t.Fatal("MU macro feedback should be at least as frequent as SU")
	}
	if a.Name() != "mobility-adaptive" || f.Name() != "fixed" {
		t.Fatal("bad names")
	}
}

func suChannel(mode mobility.Mode, seed uint64) (*channel.Model, *mobility.Scenario) {
	cfg := mobility.DefaultSceneConfig()
	cfg.Duration = 60
	scen := mobility.NewScenario(mode, cfg, stats.NewRNG(seed))
	chCfg := channel.DefaultConfig()
	// Cell-edge operating point: beamforming gain only matters when the
	// link is not already SNR-saturated.
	chCfg.TxPowerDBm = 2
	ch := channel.New(chCfg, scen, stats.NewRNG(seed+5))
	return ch, scen
}

func constState(s core.State) func(float64) core.State {
	return func(float64) core.State { return s }
}

func TestRunSUStaticPrefersLongPeriod(t *testing.T) {
	// Paper Fig. 11(a), static curve: frequent feedback only adds
	// overhead on a frozen channel.
	var short, long []float64
	for seed := uint64(0); seed < 4; seed++ {
		ch, _ := suChannel(mobility.Static, seed*11+1)
		s := RunSU(ch, FixedFeedback{T: 5e-3}, constState(core.StateStatic), DefaultSUConfig(), 4)
		ch2, _ := suChannel(mobility.Static, seed*11+1)
		l := RunSU(ch2, FixedFeedback{T: 200e-3}, constState(core.StateStatic), DefaultSUConfig(), 4)
		short = append(short, s.Mbps)
		long = append(long, l.Mbps)
	}
	if stats.Mean(long) <= stats.Mean(short) {
		t.Fatalf("static: 200 ms feedback (%.1f Mbps) should beat 5 ms (%.1f Mbps)",
			stats.Mean(long), stats.Mean(short))
	}
}

func TestRunSUMacroPrefersShortPeriod(t *testing.T) {
	// Paper Fig. 11(a), macro curve: stale CSI wrecks the beam.
	var short, long []float64
	for seed := uint64(0); seed < 4; seed++ {
		ch, _ := suChannel(mobility.Macro, seed*13+2)
		s := RunSU(ch, FixedFeedback{T: 5e-3}, constState(core.StateMacroAway), DefaultSUConfig(), 4)
		ch2, _ := suChannel(mobility.Macro, seed*13+2)
		l := RunSU(ch2, FixedFeedback{T: 100e-3}, constState(core.StateMacroAway), DefaultSUConfig(), 4)
		short = append(short, s.Mbps)
		long = append(long, l.Mbps)
	}
	if stats.Mean(short) <= stats.Mean(long) {
		t.Fatalf("macro: 5 ms feedback (%.1f Mbps) should beat 100 ms (%.1f Mbps)",
			stats.Mean(short), stats.Mean(long))
	}
}

func TestRunSUAccounting(t *testing.T) {
	ch, _ := suChannel(mobility.Static, 3)
	res := RunSU(ch, FixedFeedback{T: 20e-3}, nil, DefaultSUConfig(), 2)
	if res.Mbps <= 0 {
		t.Fatal("no throughput")
	}
	if res.Soundings < 80 || res.Soundings > 120 {
		t.Fatalf("soundings = %d in 2 s at 20 ms, want ~100", res.Soundings)
	}
	if res.FeedbackFraction <= 0 || res.FeedbackFraction > 0.5 {
		t.Fatalf("feedback fraction = %v", res.FeedbackFraction)
	}
}

func muUsers(t *testing.T, modes [3]mobility.Mode, period [3]float64, seed uint64) []MUUser {
	t.Helper()
	chCfg := channel.DefaultConfig()
	chCfg.NRx = 1 // single-antenna laptop receivers, as in the paper
	users := make([]MUUser, 3)
	for i := 0; i < 3; i++ {
		cfg := mobility.DefaultSceneConfig()
		cfg.Duration = 60
		scen := mobility.NewScenario(modes[i], cfg, stats.NewRNG(seed+uint64(i)*17))
		ch := channel.NewAt(chCfg, cfg.AP, scen, stats.NewRNG(seed+uint64(i)*17+7))
		users[i] = MUUser{
			Chan:  ch,
			Sched: FixedFeedback{T: period[i]},
		}
	}
	return users
}

func TestRunMUFreshFeedbackServesAll(t *testing.T) {
	users := muUsers(t, [3]mobility.Mode{mobility.Static, mobility.Static, mobility.Static},
		[3]float64{20e-3, 20e-3, 20e-3}, 4)
	res := RunMU(users, DefaultMUConfig(), 2)
	if len(res.PerUserMbps) != 3 {
		t.Fatalf("per-user results = %v", res.PerUserMbps)
	}
	for u, mbps := range res.PerUserMbps {
		if mbps <= 0 {
			t.Fatalf("user %d got no throughput", u)
		}
	}
	if res.TotalMbps <= 0 {
		t.Fatal("no total throughput")
	}
}

func TestRunMUStaleFeedbackHurtsMobileUser(t *testing.T) {
	// One macro-mobility user among two static ones: with a long feedback
	// period the mobile user's throughput collapses, and refreshing only
	// its feedback restores most of it (paper Fig. 12(a): staleness
	// affects the mobile client, not the static ones).
	modes := [3]mobility.Mode{mobility.Static, mobility.Static, mobility.Macro}
	stale := RunMU(muUsers(t, modes, [3]float64{20e-3, 20e-3, 100e-3}, 5), DefaultMUConfig(), 3)
	fresh := RunMU(muUsers(t, modes, [3]float64{20e-3, 20e-3, 2e-3}, 5), DefaultMUConfig(), 3)
	if fresh.PerUserMbps[2] <= stale.PerUserMbps[2] {
		t.Fatalf("mobile user: fresh feedback %.1f Mbps should beat stale %.1f Mbps",
			fresh.PerUserMbps[2], stale.PerUserMbps[2])
	}
}

func TestRunMUEmpty(t *testing.T) {
	res := RunMU(nil, DefaultMUConfig(), 1)
	if res.TotalMbps != 0 || len(res.PerUserMbps) != 0 {
		t.Fatal("empty MU run should be all zeros")
	}
}
