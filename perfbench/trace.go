package main

import "time"

// span names one layer boundary the traced driver wraps. The order is the
// order of the per-layer metrics in the result.
type span int

const (
	spanChannelMeasure span = iota
	spanToFSample
	spanCoreObserve
	spanRateStep
	spanAggLimit
	spanRoamDecide
	spanMACTransmit
	spanMediumReserve
	spanMediumEvents
	spanCtlEncode
	spanCtlSend
	spanCtlAnswer
	spanCtlRoundWait
	numSpans
)

// spanNames are the metric prefixes of the spans, indexed by span.
var spanNames = [numSpans]string{
	"channel.measure",
	"tof.sample",
	"core.observe",
	"ratecontrol.step",
	"aggregation.limit",
	"roaming.decide",
	"mac.transmit",
	"medium.reserve",
	"medium.events",
	"ctlproto.encode",
	"ctlproto.send",
	"ctlproto.answer",
	"ctlproto.round_wait",
}

// epoch anchors the monotonic nanosecond clock the spans read.
var epoch = time.Now()

func nanotime() int64 { return int64(time.Since(epoch)) }

// spanAgg is one span's in-memory aggregate: call count and self time
// (its duration minus the part its child spans cover).
type spanAgg struct {
	calls  int64
	selfNs int64
}

type frame struct {
	id    span
	start int64
	child int64
}

// tracer records spans for one goroutine and aggregates them per layer.
// A nil *tracer records nothing, so the same driver code runs traced and
// untraced.
type tracer struct {
	stack []frame
	agg   [numSpans]spanAgg
	// busyNs is the wall time of the root work units this tracer ran:
	// fleet clients, contended event loops or AP sender loops.
	busyNs int64
}

func newTracer() *tracer { return &tracer{stack: make([]frame, 0, 8)} }

// begin opens a span; every begin is closed by exactly one end.
func (t *tracer) begin(id span) {
	if t == nil {
		return
	}
	t.stack = append(t.stack, frame{id: id, start: nanotime()})
}

// end closes the innermost open span and charges its duration to the
// enclosing span's child time.
func (t *tracer) end() {
	if t == nil {
		return
	}
	now := nanotime()
	n := len(t.stack) - 1
	f := t.stack[n]
	t.stack = t.stack[:n]
	d := now - f.start
	t.agg[f.id].calls++
	t.agg[f.id].selfNs += d - f.child
	if n > 0 {
		t.stack[n-1].child += d
	}
}

// addBusy charges the wall time of one root work unit.
func (t *tracer) addBusy(ns int64) {
	if t != nil {
		t.busyNs += ns
	}
}

// merge folds o's aggregates into t.
func (t *tracer) merge(o *tracer) {
	for i := range t.agg {
		t.agg[i].calls += o.agg[i].calls
		t.agg[i].selfNs += o.agg[i].selfNs
	}
	t.busyNs += o.busyNs
}

// putSpans writes every span's calls, self ns per call and share of the
// busy time, plus sim.residual.share: the busy time no span covers.
// Spans in offRoot run on goroutines outside the busy time (the ctl-roam
// measure responders); they get a share but are not subtracted.
func (t *tracer) putSpans(m metricSet, offRoot ...span) {
	covered := t.busyNs
	for i, a := range t.agg {
		name := spanNames[i]
		m.put(name+".calls", float64(a.calls), "count")
		m.put(name+".ns_per_call", ratio(float64(a.selfNs), float64(a.calls)), "ns/call")
		m.put(name+".share", ratio(float64(a.selfNs), float64(t.busyNs)), "fraction")
		covered -= a.selfNs
	}
	for _, s := range offRoot {
		covered += t.agg[s].selfNs
	}
	m.put("sim.residual.share", ratio(float64(covered), float64(t.busyNs)), "fraction")
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never calls).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
