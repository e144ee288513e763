package core

import "mobiwlan/internal/obs"

// Metrics is the classifier's telemetry bundle. All fields are
// registry handles (atomic, commutative), so one Metrics may be shared
// by concurrent trials; a nil *Metrics disables everything.
type Metrics struct {
	// transitions counts every published state change; enterState[s]
	// attributes them to the state being entered.
	transitions *obs.Counter
	enterState  [numStates]*obs.Counter
	// similarity is the per-sample moving-average CSI similarity
	// (paper Eq. 1), the classifier's primary observable.
	similarity *obs.Histogram
	// latency is the sim-time lag between a ground-truth mode change
	// and the first matching decision (observed by RunScenario).
	latency *obs.Histogram
	// tofStarts/tofStops count ToF measurement windows (paper Fig. 5's
	// "start/stop ToF collection" edges).
	tofStarts *obs.Counter
	tofStops  *obs.Counter
}

// NewMetrics creates the classifier metric handles on reg. A nil
// registry yields a nil (fully disabled) Metrics.
func NewMetrics(reg *obs.Registry) *Metrics {
	if reg == nil {
		return nil
	}
	m := &Metrics{
		transitions: reg.Counter("core.transitions"),
		similarity:  reg.Histogram("core.similarity", 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.98, 0.99, 1),
		latency:     reg.Histogram("core.classify-latency_s", 0.1, 0.25, 0.5, 1, 2, 4, 8, 16),
		tofStarts:   reg.Counter("core.tof.starts"),
		tofStops:    reg.Counter("core.tof.stops"),
	}
	for s := 0; s < numStates; s++ {
		m.enterState[s] = reg.Counter("core.enter." + StateLabel(State(s)))
	}
	return m
}

func (m *Metrics) observeSimilarity(v float64) {
	if m == nil {
		return
	}
	m.similarity.Observe(v)
}

func (m *Metrics) observeTransition(to State) {
	if m == nil {
		return
	}
	m.transitions.Inc()
	if s := int(to); s >= 0 && s < numStates {
		m.enterState[s].Inc()
	}
}

func (m *Metrics) observeLatency(dt float64) {
	if m == nil {
		return
	}
	m.latency.Observe(dt)
}

func (m *Metrics) observeToF(start bool) {
	if m == nil {
		return
	}
	if start {
		m.tofStarts.Inc()
	} else {
		m.tofStops.Inc()
	}
}

// Instrument attaches telemetry sinks to the classifier. Either
// argument may be nil; with both nil the classifier behaves exactly as
// uninstrumented. The tracer must belong to this classifier's
// goroutine (see obs.Tracer); the metrics may be shared.
func (c *Classifier) Instrument(m *Metrics, tr *obs.Tracer) {
	c.met = m
	c.tr = tr
}

// noteTransition records one published state change (metrics + trace).
// Called from refreshState only when the state actually changed.
func (c *Classifier) noteTransition(t float64, from, to State) {
	c.met.observeTransition(to)
	c.tr.Emit(t, "core", "transition", float64(from), float64(to), StateLabel(to))
}
