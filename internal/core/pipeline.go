package core

import (
	"sort"

	"mobiwlan/internal/channel"
	"mobiwlan/internal/csi"
	"mobiwlan/internal/mobility"
	"mobiwlan/internal/obs"
	"mobiwlan/internal/stats"
	"mobiwlan/internal/tof"
)

// PipelineConfig wires a classifier to the simulated measurement hardware.
type PipelineConfig struct {
	Channel    channel.Config
	ToF        tof.Config
	Classifier Config

	// Obs, when non-nil, collects classifier telemetry. Trial keys the
	// per-trial tracer (obs package rules: distinct concurrent trials
	// must use distinct keys); metrics are shared and commutative.
	Obs   *obs.Scope
	Trial int
}

// DefaultPipelineConfig returns the paper's end-to-end configuration.
func DefaultPipelineConfig() PipelineConfig {
	return PipelineConfig{
		Channel:    channel.DefaultConfig(),
		ToF:        tof.DefaultConfig(),
		Classifier: DefaultConfig(),
	}
}

// Decision is one classification output with its ground truth.
type Decision struct {
	Time  float64
	State State
	Truth State
}

// StateAt returns a lookup over RunScenario's decisions, which are in
// time order: the state of the last decision at or before t, and
// StateUnknown before the first.
func StateAt(decisions []Decision) func(t float64) State {
	return func(t float64) State {
		i := sort.Search(len(decisions), func(i int) bool { return decisions[i].Time > t })
		if i == 0 {
			return StateUnknown
		}
		return decisions[i-1].State
	}
}

// RunScenario drives the full measurement-and-classification pipeline over
// a scenario: the channel model produces CSI snapshots every
// CSISamplePeriod, the ToF meter produces raw readings every
// tof.SampleInterval while the classifier asks for them, and every CSI
// observation emits one Decision. seed controls all measurement noise.
func RunScenario(scen *mobility.Scenario, pc PipelineConfig, seed uint64) []Decision {
	rng := stats.NewRNG(seed)
	link := channel.New(pc.Channel, scen, rng.Split(1))
	meter := tof.NewMeter(pc.ToF, rng.Split(2))
	cls := New(pc.Classifier)

	var met *Metrics
	if pc.Obs != nil {
		met = NewMetrics(pc.Obs.Registry())
		cls.Instrument(met, pc.Obs.Tracer(pc.Trial))
	}
	// Classification latency: sim time from a ground-truth mode change
	// to the first decision whose coarse mode matches it.
	lastTruth := StateUnknown
	truthChangedAt := 0.0
	latencyPending := false

	var out []Decision
	var csiBuf *csi.Matrix // reused measurement buffer; the classifier copies
	nextCSI, nextToF := 0.0, 0.0
	csiPeriod := pc.Classifier.CSISamplePeriod
	if csiPeriod <= 0 {
		csiPeriod = 0.05
	}
	for t := 0.0; t < scen.Duration; {
		// Advance to the next event.
		t = nextCSI
		if nextToF < t {
			t = nextToF
		}
		if t >= scen.Duration {
			break
		}
		if t == nextToF {
			if cls.ToFActive() {
				cls.ObserveToF(t, meter.Raw(link.Distance(t)))
			}
			nextToF += tof.SampleInterval
		}
		if t == nextCSI {
			s := link.MeasureInto(t, csiBuf)
			csiBuf = s.CSI
			cls.ObserveCSI(t, s.CSI)
			mode, heading := scen.GroundTruth(t)
			truth := StateFor(mode, heading)
			if met != nil {
				if truth.Mode() != lastTruth.Mode() || lastTruth == StateUnknown {
					lastTruth, truthChangedAt, latencyPending = truth, t, true
				}
				if latencyPending && cls.State().Mode() == truth.Mode() && cls.State() != StateUnknown {
					met.observeLatency(t - truthChangedAt)
					latencyPending = false
				}
			}
			out = append(out, Decision{
				Time:  t,
				State: cls.State(),
				Truth: truth,
			})
			nextCSI += csiPeriod
		}
	}
	return out
}

// Accuracy returns the fraction of decisions after the warmup time whose
// state matches the ground truth. Macro decisions are credited when the
// coarse mode matches even if the heading is still settling, mirroring the
// paper's Table 1 (which scores the four-way mode).
func Accuracy(decisions []Decision, warmup float64) float64 {
	total, correct := 0, 0
	for _, d := range decisions {
		if d.Time < warmup {
			continue
		}
		total++
		if d.State.Mode() == d.Truth.Mode() {
			correct++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(correct) / float64(total)
}

// HeadingAccuracy returns the fraction of post-warmup macro-truth decisions
// whose full state (including heading) matches.
func HeadingAccuracy(decisions []Decision, warmup float64) float64 {
	total, correct := 0, 0
	for _, d := range decisions {
		if d.Time < warmup || d.Truth.Mode() != mobility.Macro {
			continue
		}
		total++
		if d.State == d.Truth {
			correct++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(correct) / float64(total)
}

// ConfusionMatrix counts post-warmup decisions by (truth mode, decided
// mode) — the paper's Table 1.
type ConfusionMatrix struct {
	// Counts[truth][decided] over the four coarse modes.
	Counts [4][4]int
}

// Add folds a slice of decisions into the matrix.
func (cm *ConfusionMatrix) Add(decisions []Decision, warmup float64) {
	for _, d := range decisions {
		if d.Time < warmup || d.State == StateUnknown {
			continue
		}
		cm.Counts[int(d.Truth.Mode())][int(d.State.Mode())]++
	}
}

// Row returns the percentage distribution of decisions for a truth mode.
func (cm *ConfusionMatrix) Row(truth mobility.Mode) [4]float64 {
	var out [4]float64
	row := cm.Counts[int(truth)]
	total := 0
	for _, v := range row {
		total += v
	}
	if total == 0 {
		return out
	}
	for i, v := range row {
		out[i] = 100 * float64(v) / float64(total)
	}
	return out
}

// Diagonal returns the per-mode accuracy percentages.
func (cm *ConfusionMatrix) Diagonal() [4]float64 {
	var out [4]float64
	for i, m := range mobility.AllModes {
		out[i] = cm.Row(m)[int(m)]
	}
	return out
}
