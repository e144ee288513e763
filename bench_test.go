// Package mobiwlan's root benchmark harness: one testing.B benchmark per
// table and figure of the paper's evaluation (run the full-size versions
// with cmd/figures), plus micro-benchmarks of the hot substrate paths.
//
//	go test -bench=. -benchmem
//
// Each BenchmarkFigure*/BenchmarkTable* regenerates its experiment at a
// reduced scale per iteration, so the benchmark both exercises the full
// pipeline behind that figure and tracks its regeneration cost.
package mobiwlan

import (
	"fmt"
	"testing"

	"mobiwlan/internal/beamforming"
	"mobiwlan/internal/channel"
	"mobiwlan/internal/core"
	"mobiwlan/internal/csi"
	"mobiwlan/internal/ctlproto"
	"mobiwlan/internal/experiments"
	"mobiwlan/internal/loadgen"
	"mobiwlan/internal/mobility"
	"mobiwlan/internal/parallel"
	"mobiwlan/internal/phy"
	"mobiwlan/internal/roaming"
	"mobiwlan/internal/scenario"
	"mobiwlan/internal/sim"
	"mobiwlan/internal/stats"
)

// benchExperiment runs one registered experiment per iteration at a small
// scale on a single worker — the serial baseline the *Parallel variants
// are compared against.
func benchExperiment(b *testing.B, id string, scale float64) {
	benchExperimentJobs(b, id, scale, 1)
}

// benchExperimentParallel runs the experiment at the default worker count
// (parallel.DefaultJobs, one per GOMAXPROCS).
func benchExperimentParallel(b *testing.B, id string, scale float64) {
	benchExperimentJobs(b, id, scale, parallel.DefaultJobs())
}

func benchExperimentJobs(b *testing.B, id string, scale float64, jobs int) {
	b.Helper()
	runner, ok := experiments.Get(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	cfg := experiments.Config{Seed: 42, Scale: scale, Jobs: jobs}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := runner(cfg)
		if res.Text == "" {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkFigure1(b *testing.B)   { benchExperiment(b, "fig1", 0.2) }
func BenchmarkFigure2a(b *testing.B)  { benchExperiment(b, "fig2a", 0.2) }
func BenchmarkFigure2b(b *testing.B)  { benchExperiment(b, "fig2b", 0.2) }
func BenchmarkFigure2c(b *testing.B)  { benchExperiment(b, "fig2c", 0.2) }
func BenchmarkFigure4(b *testing.B)   { benchExperiment(b, "fig4", 0.2) }
func BenchmarkTable1(b *testing.B)    { benchExperiment(b, "table1", 0.15) }
func BenchmarkFigure6a(b *testing.B)  { benchExperiment(b, "fig6a", 0.15) }
func BenchmarkFigure6b(b *testing.B)  { benchExperiment(b, "fig6b", 0.15) }
func BenchmarkFigure7a(b *testing.B)  { benchExperiment(b, "fig7a", 0.2) }
func BenchmarkFigure7b(b *testing.B)  { benchExperiment(b, "fig7b", 0.15) }
func BenchmarkFigure8a(b *testing.B)  { benchExperiment(b, "fig8a", 0.2) }
func BenchmarkFigure8b(b *testing.B)  { benchExperiment(b, "fig8b", 0.3) }
func BenchmarkFigure8c(b *testing.B)  { benchExperiment(b, "fig8c", 0.3) }
func BenchmarkFigure9a(b *testing.B)  { benchExperiment(b, "fig9a", 0.1) }
func BenchmarkFigure9b(b *testing.B)  { benchExperiment(b, "fig9b", 0.1) }
func BenchmarkFigure10a(b *testing.B) { benchExperiment(b, "fig10a", 0.1) }
func BenchmarkFigure10b(b *testing.B) { benchExperiment(b, "fig10b", 0.1) }
func BenchmarkFigure11a(b *testing.B) { benchExperiment(b, "fig11a", 0.1) }
func BenchmarkFigure11b(b *testing.B) { benchExperiment(b, "fig11b", 0.1) }
func BenchmarkFigure12a(b *testing.B) { benchExperiment(b, "fig12a", 0.1) }
func BenchmarkFigure12b(b *testing.B) { benchExperiment(b, "fig12b", 0.1) }
func BenchmarkFigure13(b *testing.B)  { benchExperiment(b, "fig13", 0.1) }
func BenchmarkTable2(b *testing.B)    { benchExperiment(b, "table2", 1) }

// Parallel variants: the same experiments at the default worker count. The
// serial/parallel ratio is the trial fan-out speedup on this machine;
// results are byte-identical by the parallel package's determinism
// contract (asserted by TestParallelDeterminism).
func BenchmarkFigure1Parallel(b *testing.B)   { benchExperimentParallel(b, "fig1", 0.2) }
func BenchmarkFigure2bParallel(b *testing.B)  { benchExperimentParallel(b, "fig2b", 0.2) }
func BenchmarkFigure2cParallel(b *testing.B)  { benchExperimentParallel(b, "fig2c", 0.2) }
func BenchmarkTable1Parallel(b *testing.B)    { benchExperimentParallel(b, "table1", 0.15) }
func BenchmarkFigure6aParallel(b *testing.B)  { benchExperimentParallel(b, "fig6a", 0.15) }
func BenchmarkFigure6bParallel(b *testing.B)  { benchExperimentParallel(b, "fig6b", 0.15) }
func BenchmarkFigure7aParallel(b *testing.B)  { benchExperimentParallel(b, "fig7a", 0.2) }
func BenchmarkFigure7bParallel(b *testing.B)  { benchExperimentParallel(b, "fig7b", 0.15) }
func BenchmarkFigure8aParallel(b *testing.B)  { benchExperimentParallel(b, "fig8a", 0.2) }
func BenchmarkFigure9aParallel(b *testing.B)  { benchExperimentParallel(b, "fig9a", 0.1) }
func BenchmarkFigure9bParallel(b *testing.B)  { benchExperimentParallel(b, "fig9b", 0.1) }
func BenchmarkFigure10aParallel(b *testing.B) { benchExperimentParallel(b, "fig10a", 0.1) }
func BenchmarkFigure10bParallel(b *testing.B) { benchExperimentParallel(b, "fig10b", 0.1) }
func BenchmarkFigure11aParallel(b *testing.B) { benchExperimentParallel(b, "fig11a", 0.1) }
func BenchmarkFigure11bParallel(b *testing.B) { benchExperimentParallel(b, "fig11b", 0.1) }
func BenchmarkFigure12bParallel(b *testing.B) { benchExperimentParallel(b, "fig12b", 0.1) }
func BenchmarkFigure13Parallel(b *testing.B)  { benchExperimentParallel(b, "fig13", 0.1) }

// BenchmarkParallelTrials measures the pool's per-trial dispatch overhead
// with a trivial workload: the difference against the jobs=1 case bounds
// what the fan-out costs when trials are small.
func BenchmarkParallelTrials(b *testing.B) {
	for _, bc := range []struct {
		name string
		jobs int
	}{{"jobs1", 1}, {"jobsNumCPU", parallel.DefaultJobs()}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out := parallel.RunTrials(64, bc.jobs, func(trial int) float64 {
					rng := stats.NewRNG(42).Split(uint64(trial))
					s := 0.0
					for k := 0; k < 200; k++ {
						s += rng.Float64()
					}
					return s
				})
				if len(out) != 64 {
					b.Fatal("bad result length")
				}
			}
		})
	}
}

// --- substrate micro-benchmarks ---

func benchScenario(mode mobility.Mode) (*mobility.Scenario, *channel.Model) {
	cfg := mobility.DefaultSceneConfig()
	cfg.Duration = 600
	scen := mobility.NewScenario(mode, cfg, stats.NewRNG(7))
	ch := channel.New(channel.DefaultConfig(), scen, stats.NewRNG(8))
	return scen, ch
}

// The channel/CSI micro-benchmarks exercise the steady-state hot path the
// simulators actually run — the buffer-reusing Into/Workspace variants,
// which must stay at 0 allocs/op (pinned by alloc_test.go and the
// cmd/benchstatus gate).

func BenchmarkChannelResponse(b *testing.B) {
	_, ch := benchScenario(mobility.Macro)
	h := ch.ResponseInto(0, nil) // warm the reused buffer outside the timer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h = ch.ResponseInto(float64(i%10000)*0.01, h)
	}
}

func BenchmarkChannelMeasure(b *testing.B) {
	_, ch := benchScenario(mobility.Macro)
	h := ch.MeasureInto(0, nil).CSI // warm the reused buffer outside the timer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := ch.MeasureInto(float64(i%10000)*0.01, h)
		h = s.CSI
	}
}

func BenchmarkCSISimilarity(b *testing.B) {
	_, ch := benchScenario(mobility.Micro)
	m1 := ch.Measure(0).CSI.Clone()
	m2 := ch.Measure(0.05).CSI
	var ws csi.Workspace
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ws.Similarity(m1, m2)
	}
}

func BenchmarkEffectiveSNR(b *testing.B) {
	_, ch := benchScenario(mobility.Static)
	m := ch.Measure(0).CSI
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = phy.EffectiveSNRdB(m, 25)
	}
}

func BenchmarkClassifierPipeline(b *testing.B) {
	cfg := mobility.DefaultSceneConfig()
	cfg.Duration = 5
	scen := mobility.NewScenario(mobility.Macro, cfg, stats.NewRNG(3))
	pc := core.DefaultPipelineConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.RunScenario(scen, pc, uint64(i))
	}
}

func BenchmarkLinkSimSecond(b *testing.B) {
	cfg := mobility.DefaultSceneConfig()
	cfg.Duration = 1
	scen := mobility.NewScenario(mobility.Macro, cfg, stats.NewRNG(4))
	opt := sim.MotionAwareLinkOptions()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sim.RunLink(scen, opt, uint64(i))
	}
}

// benchLinkSecond runs one second of the closed-loop link simulator per
// iteration for a given mobility mode, with the channel coherence cache
// on or off. Results are bit-identical either way (the cache contract,
// pinned by TestCacheBitIdenticalAcrossModes); only the cost differs.
// The seed is fixed so every iteration does identical work: frame
// counts — and with them allocs/op and B/op — are seed-dependent, and
// the benchstatus gate compares allocation columns exactly.
func benchLinkSecond(b *testing.B, mode mobility.Mode, disableCache bool) {
	cfg := mobility.DefaultSceneConfig()
	cfg.Duration = 1
	scen := mobility.NewScenario(mode, cfg, stats.NewRNG(4))
	opt := sim.MotionAwareLinkOptions()
	opt.Channel.DisableCache = disableCache
	_ = sim.RunLink(scen, opt, 42) // warm one-time lazy state outside the timer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sim.RunLink(scen, opt, 42)
	}
}

// BenchmarkStaticLinkSecond is the coherence cache's headline number: a
// static client's geometry never changes, so after the first frame every
// ResponseInto in the MAC hot path is an epoch hit (a matrix copy). The
// Uncached variant runs the identical workload with Config.DisableCache
// set; the ratio of the two is the cache's speedup, gated ≥3x by the
// committed BENCH_pr5.json baseline.
func BenchmarkStaticLinkSecond(b *testing.B)         { benchLinkSecond(b, mobility.Static, false) }
func BenchmarkStaticLinkSecondUncached(b *testing.B) { benchLinkSecond(b, mobility.Static, true) }

// BenchmarkEnvLinkSecond covers the partial-reuse path: environmental
// mobility moves a few scatterers while the client stays put, so each
// epoch miss re-evaluates only the paths whose length changed and reuses
// every other path's cached phasor series.
func BenchmarkEnvLinkSecond(b *testing.B)         { benchLinkSecond(b, mobility.Environmental, false) }
func BenchmarkEnvLinkSecondUncached(b *testing.B) { benchLinkSecond(b, mobility.Environmental, true) }

// BenchmarkWLANFleet tracks the multi-client scale harness: a small mixed
// fleet (all four mobility classes, round-robin) of full WLAN stacks for
// one simulated second each. Jobs is pinned to 1 so the number measures
// per-client cost, not scheduler fan-out, and the seed is fixed so
// allocs/op stays exact across runs (see benchLinkSecond).
func BenchmarkWLANFleet(b *testing.B) {
	opt := sim.FleetOptions{Clients: 4, Duration: 1, MotionAware: true, Jobs: 1}
	_ = sim.RunWLANFleet(opt, 42) // warm worker stacks and lazy state outside the timer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := sim.RunWLANFleet(opt, 42)
		if len(res.PerClient) != opt.Clients {
			b.Fatal("bad fleet size")
		}
	}
}

// BenchmarkContendedFleet tracks the shared-medium event loop: the
// BenchmarkWLANFleet workload routed through CSMA/CA contention and OBSS
// accounting (ns/op is cost per fleet-sim-second; the fleet and duration
// match BenchmarkWLANFleet so the two are directly comparable — the gap
// between them is what medium arbitration costs). Jobs is pinned to 1, as
// in BenchmarkWLANFleet, so the number measures per-client serial cost
// rather than step overlap and allocs/op does not depend on the host's
// processor count; the seed is fixed so allocs/op stays exact across runs
// (see benchLinkSecond).
func BenchmarkContendedFleet(b *testing.B) {
	opt := sim.FleetOptions{Clients: 4, Duration: 1, MotionAware: true, Contend: true, Jobs: 1}
	_ = sim.RunWLANFleet(opt, 42) // warm lazy state outside the timer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := sim.RunWLANFleet(opt, 42)
		if res.Contend == nil || len(res.PerClient) != opt.Clients {
			b.Fatal("bad contended fleet result")
		}
	}
}

// BenchmarkScenarioFleet tracks the declarative fleet path end to end:
// parse a committed scenario file, build its clients, and run their full
// WLAN stacks. The spec (office-mixed: one client per ground-truth mode on
// the paper's floor) is authoritative for the client mix; only its 30 s
// duration is trimmed to one simulated second per iteration so the number
// stays comparable to BenchmarkWLANFleet — the gap between the two is what
// spec parsing and client building cost. Jobs is pinned to 1 and the seed
// fixed so allocs/op stays exact across runs (see benchLinkSecond).
func BenchmarkScenarioFleet(b *testing.B) {
	spec, err := scenario.ParseFile("examples/scenarios/office-mixed.json")
	if err != nil {
		b.Fatal(err)
	}
	spec.DurationS = 1
	opt := sim.FleetOptions{Jobs: 1}
	if _, err := sim.RunScenarioFleet(spec, opt, 42); err != nil { // warm lazy state outside the timer
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.RunScenarioFleet(spec, opt, 42)
		if err != nil || len(res.PerClient) != spec.Total {
			b.Fatalf("bad scenario fleet result: %v", err)
		}
	}
}

func BenchmarkRoamingRunSecond(b *testing.B) {
	cfg := mobility.DefaultSceneConfig()
	cfg.Duration = 1
	scen := mobility.NewScenario(mobility.Macro, cfg, stats.NewRNG(5))
	runner := roaming.NewRunner(roaming.DefaultPlan())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = runner.Run(scen, roaming.NewMobilityAware(), uint64(i))
	}
}

func BenchmarkZFPrecoder(b *testing.B) {
	rng := stats.NewRNG(6)
	mk := func() *csi.Matrix {
		m := csi.NewMatrix(52, 3, 1)
		for sc := 0; sc < 52; sc++ {
			for tx := 0; tx < 3; tx++ {
				m.Set(sc, tx, 0, complex(rng.NormFloat64(), rng.NormFloat64()))
			}
		}
		return m
	}
	a, c, d := mk(), mk(), mk()
	rows := make([][]complex128, 3)
	var solver beamforming.ZFSolver
	var w [][]complex128
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc := i % 52
		rows[0] = a.ColumnInto(rows[0], sc, 0)
		rows[1] = c.ColumnInto(rows[1], sc, 0)
		rows[2] = d.ColumnInto(rows[2], sc, 0)
		var ok bool
		w, ok = solver.WeightsInto(rows, w)
		if !ok {
			b.Fatal("singular precoding system in benchmark data")
		}
	}
}

// ctlBenchReports builds a fixed 64-client report stream on the wire
// quantization grid for the control-plane micro-benchmarks.
func ctlBenchReports() []ctlproto.MobilityReport {
	reps := make([]ctlproto.MobilityReport, 1024)
	for i := range reps {
		reps[i] = ctlproto.MobilityReport{
			APID:    "ap1",
			Client:  fmt.Sprintf("sta%03d", i%64),
			State:   core.StateMicro,
			Time:    ctlproto.UnquantTime(int64(i) * 250_000),
			RSSIdBm: ctlproto.UnquantRSSI(-6000 + int64(i%100)),
		}
	}
	return reps
}

// BenchmarkCtlBatchEncode measures the per-report cost of the v2 delta
// encoder in steady state (warm client table, reused batch buffer).
func BenchmarkCtlBatchEncode(b *testing.B) {
	reps := ctlBenchReports()
	enc := ctlproto.BatchEncoder{APID: "ap1", SnapshotEvery: 16}
	var batch ctlproto.ReportBatch
	for i := 0; i < 512; i++ { // warm the client table and entry buffer
		if err := enc.Add(&reps[i]); err != nil {
			b.Fatal(err)
		}
	}
	enc.Flush(&batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := enc.Add(&reps[i%len(reps)]); err != nil {
			b.Fatal(err)
		}
		if enc.Len() == 64 {
			if !enc.Flush(&batch) {
				b.Fatal("empty flush")
			}
		}
	}
}

// BenchmarkCtlDeltaDecode measures the per-entry cost of expanding a
// delta/snapshot stream back into absolute reports.
func BenchmarkCtlDeltaDecode(b *testing.B) {
	reps := ctlBenchReports()
	enc := ctlproto.BatchEncoder{APID: "ap1", SnapshotEvery: 16}
	var batch ctlproto.ReportBatch
	var entries []ctlproto.BatchEntry
	for i := range reps {
		if err := enc.Add(&reps[i]); err != nil {
			b.Fatal(err)
		}
		if enc.Len() == 64 {
			enc.Flush(&batch)
			entries = append(entries, batch.Entries...)
		}
	}
	if enc.Flush(&batch) {
		entries = append(entries, batch.Entries...)
	}
	var dec ctlproto.DeltaDecoder
	var out ctlproto.MobilityReport
	for i := range entries { // warm the client table
		if err := dec.Apply("ap1", &entries[i], &out); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dec.Apply("ap1", &entries[i%len(entries)], &out); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCtlCoordinatorReport measures the shard hot path at city
// scale: one mobility report against a 10k-AP fleet with warm state.
func BenchmarkCtlCoordinatorReport(b *testing.B) {
	allAPs := make([]string, 10_000)
	for i := range allAPs {
		allAPs[i] = fmt.Sprintf("ap%05d", i)
	}
	coord := ctlproto.NewCoordinator()
	coord.MaxFanout = 8
	clients := make([]string, 64)
	rep := ctlproto.MobilityReport{APID: allAPs[0], State: core.StateStatic, RSSIdBm: -60}
	var targets []string
	for i := range clients {
		clients[i] = fmt.Sprintf("sta%03d", i)
		rep.Client = clients[i]
		targets = coord.OnMobilityReportInto(&rep, allAPs, targets)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep.Client = clients[i%len(clients)]
		rep.Time = float64(i)
		targets = coord.OnMobilityReportInto(&rep, allAPs, targets)
	}
}

// BenchmarkCtlLoadSchedule measures generating one AP's deterministic
// report schedule (the ctlload inner loop).
func BenchmarkCtlLoadSchedule(b *testing.B) {
	cfg := loadgen.Defaults()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sched := loadgen.GenerateAP(cfg, 7); len(sched) == 0 {
			b.Fatal("empty schedule")
		}
	}
}
