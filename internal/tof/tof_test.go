package tof

import (
	"math"
	"testing"

	"mobiwlan/internal/mobility"
	"mobiwlan/internal/stats"
)

func TestCyclesPerMeter(t *testing.T) {
	cfg := DefaultConfig()
	// 2 * 88e6 / c = ~0.587 cycles per meter.
	want := 2 * 88e6 / SpeedOfLight
	if got := cfg.CyclesPerMeter(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("CyclesPerMeter = %v, want %v", got, want)
	}
}

func TestRawIsQuantized(t *testing.T) {
	m := NewMeter(DefaultConfig(), stats.NewRNG(1))
	for i := 0; i < 100; i++ {
		r := m.Raw(10)
		if r != math.Round(r) {
			t.Fatalf("Raw not integer: %v", r)
		}
	}
}

func TestRawTracksDistance(t *testing.T) {
	cfg := DefaultConfig()
	m := NewMeter(cfg, stats.NewRNG(2))
	// Average many readings at two distances; the difference should match
	// CyclesPerMeter * delta.
	avg := func(d float64) float64 {
		var s float64
		for i := 0; i < 5000; i++ {
			s += m.Raw(d)
		}
		return s / 5000
	}
	near, far := avg(5), avg(105)
	got := (far - near) / 100
	if math.Abs(got-cfg.CyclesPerMeter()) > 0.05 {
		t.Fatalf("cycles/meter from readings = %v, want %v", got, cfg.CyclesPerMeter())
	}
}

func TestRawJitterMagnitude(t *testing.T) {
	cfg := DefaultConfig()
	m := NewMeter(cfg, stats.NewRNG(3))
	var xs []float64
	for i := 0; i < 5000; i++ {
		xs = append(xs, m.Raw(10))
	}
	sd := stats.StdDev(xs)
	// Gaussian jitter plus quantization noise.
	if sd < cfg.JitterCycles*0.7 || sd > cfg.JitterCycles*1.5 {
		t.Fatalf("raw stddev = %v, want near %v", sd, cfg.JitterCycles)
	}
}

// medianInterval is the paper's 1 s aggregation period (core.Config's
// MedianInterval default).
const medianInterval = 1.0

func TestMediansEmitPerInterval(t *testing.T) {
	m := NewMeter(DefaultConfig(), stats.NewRNG(4))
	var meds Medians
	emitted := 0
	for i := 0; i < 500; i++ { // 10 s at 20 ms
		tt := float64(i) * SampleInterval
		if _, ok := meds.Add(tt, m.Raw(10), medianInterval); ok {
			emitted++
		}
	}
	if emitted < 8 || emitted > 11 {
		t.Fatalf("emitted %d medians in 10 s, want ~10", emitted)
	}
}

func TestMedianNoiseReduction(t *testing.T) {
	cfg := DefaultConfig()
	m := NewMeter(cfg, stats.NewRNG(5))
	var meds Medians
	var medians []float64
	for i := 0; i < 3000; i++ {
		tt := float64(i) * SampleInterval
		if med, ok := meds.Add(tt, m.Raw(10), medianInterval); ok {
			medians = append(medians, med)
		}
	}
	sd := stats.StdDev(medians)
	// Median of ~50 readings should cut noise by ~sqrt(50)/1.25 ~ 5-6x.
	if sd > cfg.JitterCycles/2 {
		t.Fatalf("median stddev = %v, want < %v", sd, cfg.JitterCycles/2)
	}
	if sd == 0 {
		t.Fatal("medians have no noise at all — suspicious")
	}
}

func TestMediansReset(t *testing.T) {
	var meds Medians
	meds.Add(0, 10, medianInterval)
	meds.Add(0.02, 10, medianInterval)
	meds.Reset()
	if meds.filter.Len() != 0 {
		t.Fatal("Reset did not clear the filter")
	}
	// After reset, aggregation restarts from the next reading's time.
	if _, ok := meds.Add(5, 10, medianInterval); ok {
		t.Fatal("first reading after reset should not emit a median")
	}
	if med, ok := meds.Add(6, 12, medianInterval); !ok || med != 11 {
		t.Fatalf("one interval after reset: median %v, ok %v; want 11, true", med, ok)
	}
}

func TestTrendDetectorMacroAway(t *testing.T) {
	d := NewTrendDetector(4, 0, 1.5)
	for _, v := range []float64{100, 101, 102, 103} {
		d.Push(v)
	}
	if !d.Ready() {
		t.Fatal("detector should be ready")
	}
	if got := d.Trend(); got != stats.TrendIncreasing {
		t.Fatalf("Trend = %v, want increasing", got)
	}
}

func TestTrendDetectorMacroToward(t *testing.T) {
	d := NewTrendDetector(4, 0, 1.5)
	for _, v := range []float64{103, 102, 101, 100} {
		d.Push(v)
	}
	if got := d.Trend(); got != stats.TrendDecreasing {
		t.Fatalf("Trend = %v, want decreasing", got)
	}
}

func TestTrendDetectorMicro(t *testing.T) {
	d := NewTrendDetector(4, 0, 1.5)
	for _, v := range []float64{100, 102, 101, 103} {
		d.Push(v)
	}
	if got := d.Trend(); got != stats.TrendNone {
		t.Fatalf("Trend = %v, want none", got)
	}
}

func TestTrendDetectorNotReady(t *testing.T) {
	d := NewTrendDetector(4, 0, 1.5)
	d.Push(1)
	d.Push(2)
	if d.Ready() {
		t.Fatal("detector ready with partial window")
	}
	if d.Trend() != stats.TrendNone {
		t.Fatal("partial window should report no trend")
	}
}

func TestTrendDetectorReset(t *testing.T) {
	d := NewTrendDetector(3, 0, 1.5)
	d.Push(1)
	d.Push(2)
	d.Push(3)
	d.Reset()
	if d.Ready() || d.Trend() != stats.TrendNone {
		t.Fatal("Reset did not clear the detector")
	}
}

// endToEnd runs the full ToF pipeline (raw -> median -> trend) against a
// mobility scenario and returns the fraction of windows classified as
// macro (increasing or decreasing).
func endToEnd(t *testing.T, scen *mobility.Scenario, seed uint64, window int) (macroFrac float64, firstTrend stats.Trend) {
	t.Helper()
	m := NewMeter(DefaultConfig(), stats.NewRNG(seed))
	var meds Medians
	d := NewTrendDetector(window, 0, 1.5)
	total, macro := 0, 0
	for i := 0; i < int(scen.Duration/SampleInterval); i++ {
		tt := float64(i) * SampleInterval
		raw := m.Raw(scen.Client.At(tt).Dist(scen.AP))
		if med, ok := meds.Add(tt, raw, medianInterval); ok {
			d.Push(med)
			if d.Ready() {
				total++
				tr := d.Trend()
				if tr != stats.TrendNone {
					macro++
					if firstTrend == stats.TrendNone {
						firstTrend = tr
					}
				}
			}
		}
	}
	if total == 0 {
		t.Fatal("no trend windows evaluated")
	}
	return float64(macro) / float64(total), firstTrend
}

func TestPipelineDetectsWalkingAway(t *testing.T) {
	cfg := mobility.DefaultSceneConfig()
	cfg.Duration = 20
	detected := 0
	for seed := uint64(0); seed < 10; seed++ {
		scen := mobility.NewMacroScenario(mobility.HeadingAway, cfg, stats.NewRNG(seed))
		frac, first := endToEnd(t, scen, seed+50, 4)
		if frac > 0.5 && first == stats.TrendIncreasing {
			detected++
		}
	}
	if detected < 8 {
		t.Fatalf("away-walk detected in only %d/10 runs", detected)
	}
}

func TestPipelineDetectsWalkingToward(t *testing.T) {
	cfg := mobility.DefaultSceneConfig()
	cfg.Duration = 20
	detected := 0
	for seed := uint64(0); seed < 10; seed++ {
		scen := mobility.NewMacroScenario(mobility.HeadingToward, cfg, stats.NewRNG(seed))
		frac, first := endToEnd(t, scen, seed+90, 4)
		if frac > 0.5 && first == stats.TrendDecreasing {
			detected++
		}
	}
	if detected < 8 {
		t.Fatalf("toward-walk detected in only %d/10 runs", detected)
	}
}

func TestPipelineRejectsMicroMobility(t *testing.T) {
	cfg := mobility.DefaultSceneConfig()
	cfg.Duration = 30
	var fracs []float64
	for seed := uint64(0); seed < 10; seed++ {
		scen := mobility.NewScenario(mobility.Micro, cfg, stats.NewRNG(seed))
		frac, _ := endToEnd(t, scen, seed+130, 4)
		fracs = append(fracs, frac)
	}
	if avg := stats.Mean(fracs); avg > 0.25 {
		t.Fatalf("micro misdetected as macro in %.0f%% of windows, want < 25%%", avg*100)
	}
}

func TestPipelineCircleLimitation(t *testing.T) {
	// Paper §9: a client circling the AP shows no ToF trend and is
	// (wrongly, by design) classified as micro.
	cfg := mobility.DefaultSceneConfig()
	cfg.Duration = 30
	scen := mobility.NewCircleScenario(cfg, stats.NewRNG(7))
	frac, _ := endToEnd(t, scen, 777, 4)
	if frac > 0.3 {
		t.Fatalf("circle walk detected as macro in %.0f%% of windows", frac*100)
	}
}

func TestLargerWindowReducesFalsePositives(t *testing.T) {
	cfg := mobility.DefaultSceneConfig()
	cfg.Duration = 40
	fpAt := func(window int) float64 {
		var fracs []float64
		for seed := uint64(0); seed < 8; seed++ {
			scen := mobility.NewScenario(mobility.Micro, cfg, stats.NewRNG(seed))
			frac, _ := endToEnd(t, scen, seed+1000+uint64(window)*17, window)
			fracs = append(fracs, frac)
		}
		return stats.Mean(fracs)
	}
	small, large := fpAt(2), fpAt(6)
	if large >= small {
		t.Fatalf("false positives should fall with window size: w=2 %.3f, w=6 %.3f", small, large)
	}
}

// TestDistanceEstimateRoundTrip checks the meter's ranging calibration:
// the median of many raw readings, less the fixed offset, over
// CyclesPerMeter, lands near the true distance.
func TestDistanceEstimateRoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	m := NewMeter(cfg, stats.NewRNG(31))
	for _, want := range []float64{3, 10, 25} {
		// Median of many raw readings removes most noise; the estimate
		// should land within ~1.5 m (one clock cycle is 1.7 m one-way).
		var f stats.MedianFilter
		for i := 0; i < 200; i++ {
			f.Add(m.Raw(want))
		}
		med, _ := f.Flush()
		got := (med - cfg.OffsetCycles) / cfg.CyclesPerMeter()
		if math.Abs(got-want) > 1.5 {
			t.Errorf("distance from the median at %v m = %v m", want, got)
		}
	}
}
