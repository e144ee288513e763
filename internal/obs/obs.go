// Package obs is the simulator's observability layer: a metrics
// registry (counters, gauges, fixed-bucket histograms) and a structured
// event tracer, both designed around the repository's two hard
// contracts — determinism and an allocation-free steady state.
//
// # Design rules
//
// Hot-path operations (Counter.Inc, Counter.Add, Gauge.Set,
// Histogram.Observe, Tracer.Emit) never allocate and never take a
// lock: counters and histogram buckets are atomics, the tracer writes
// into a pre-allocated ring. Handle creation (Registry.Counter etc.)
// takes the registry lock and may allocate; create handles once at
// setup, not per sample. Every handle type and the Tracer are nil-safe:
// method calls on a nil receiver are no-ops, so uninstrumented runs pay
// one predictable branch per site and nothing else.
//
// # Determinism
//
// Telemetry must not break the repo's byte-identical-output contract
// (DESIGN.md §6, §12):
//
//   - Counter and histogram updates are commutative integer additions,
//     so totals are identical for any worker count or interleaving.
//     Histogram sums are accumulated in fixed-point micro-units
//     (int64), not floats, because float addition is order-dependent.
//   - Gauges are last-write-wins and therefore only deterministic when
//     written from deterministic (single-goroutine or index-merged)
//     contexts; never write a gauge from racing trial workers.
//   - A Tracer is single-goroutine, like channel.Model: parallel trials
//     each take their own Tracer from a TrialTracers set, keyed by
//     trial index, and exports merge in ascending key order. Use
//     SyncTracer only for genuinely concurrent subsystems (ctlproto),
//     whose event order reflects socket scheduling and is diagnostic,
//     not reproducible.
//   - Dumps (WriteText, WriteJSON, WriteJSONL) are sorted by name or
//     trial key, so equal contents render byte-identically.
//
// # Naming scheme
//
// Metric names are dotted lowercase paths "<subsystem>.<metric>" with
// an optional ".<variant>" (e.g. a mobility state) and a unit suffix
// where the value has one: "core.similarity",
// "ctlproto.rx.report-batch", "mac.airtime_s",
// "roaming.handoffs". Allowed characters: [a-z0-9._-]; the registry
// panics on anything else at creation time. Trace events carry a
// category (the emitting package) and a kebab-case event name
// ("transition", "roam-directive", "knobs"); string payloads must be
// pre-interned constants so Emit stays allocation-free.
package obs

// Scope bundles the two telemetry sinks a simulation run can feed: a
// shared metrics registry and a per-trial tracer set. A nil *Scope (and
// nil fields) disables everything; code under instrumentation should
// accept a *Scope and pass handles down.
type Scope struct {
	// Reg collects metrics. Shared across trials; all hot-path updates
	// are atomic and commutative.
	Reg *Registry
	// Trials hands out per-trial tracers. Nil disables tracing while
	// keeping metrics.
	Trials *TrialTracers
}

// NewScope returns a scope with a fresh registry and, when traceCap >
// 0, a tracer set holding up to traceCap events per trial.
func NewScope(traceCap int) *Scope {
	s := &Scope{Reg: NewRegistry()}
	if traceCap > 0 {
		s.Trials = NewTrialTracers(traceCap)
	}
	return s
}

// Registry returns the scope's registry, or nil on a nil scope — safe
// to pass straight to a subsystem's NewMetrics.
func (s *Scope) Registry() *Registry {
	if s == nil {
		return nil
	}
	return s.Reg
}

// Tracer returns the tracer for a trial key, or nil when the scope (or
// its tracer set) is disabled. Distinct concurrent workers must use
// distinct keys: a Tracer is single-goroutine.
func (s *Scope) Tracer(trial int) *Tracer {
	if s == nil || s.Trials == nil {
		return nil
	}
	return s.Trials.For(trial)
}
