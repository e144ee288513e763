package core

import (
	"mobiwlan/internal/aoa"
	"mobiwlan/internal/csi"
)

// ExtendedClassifier augments the base CSI+ToF classifier with the
// Angle-of-Arrival bearing-sweep detector the paper proposes as future
// work (§9): when CSI indicates device mobility and ToF shows no radial
// trend, a consistent bearing sweep across the AP's antenna array reveals
// orbital macro-mobility.
type ExtendedClassifier struct {
	base    *Classifier
	bearing *aoa.BearingTracker
}

// NewExtended builds the extended classifier for an AP with the given
// array size.
func NewExtended(cfg Config, antennas int) *ExtendedClassifier {
	return &ExtendedClassifier{
		base:    New(cfg),
		bearing: aoa.NewBearingTracker(antennas, cfg.ToFWindow),
	}
}

// ObserveCSI feeds a CSI snapshot to both the base classifier and the
// bearing tracker.
func (e *ExtendedClassifier) ObserveCSI(t float64, m *csi.Matrix) {
	e.base.ObserveCSI(t, m)
	if e.base.ToFActive() {
		// Device mobility: track the bearing alongside ToF.
		e.bearing.Observe(t, m)
	} else {
		e.bearing.Reset()
	}
}

// ObserveToF forwards raw ToF readings to the base classifier.
func (e *ExtendedClassifier) ObserveToF(t float64, rawCycles float64) {
	e.base.ObserveToF(t, rawCycles)
}

// ToFActive reports whether ToF collection should run (see Classifier).
func (e *ExtendedClassifier) ToFActive() bool { return e.base.ToFActive() }

// Config returns the base configuration.
func (e *ExtendedClassifier) Config() Config { return e.base.Config() }

// State returns the extended classification: the base state, upgraded to
// StateMacroOrbit when the base says micro but the bearing is sweeping.
func (e *ExtendedClassifier) State() State {
	s := e.base.State()
	if s == StateMicro && e.bearing.Sweeping() {
		return StateMacroOrbit
	}
	return s
}
