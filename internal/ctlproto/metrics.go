package ctlproto

import "mobiwlan/internal/obs"

// Metrics is the controller's telemetry bundle: per-message-type rx/tx
// counters, connection lifecycle counters, and decision histograms.
// All handles are atomic, so the server's concurrent per-connection
// goroutines share one Metrics freely; a nil *Metrics disables
// everything. Event tracing uses an obs.SyncTracer because message
// arrival order reflects socket scheduling — the trace is diagnostic,
// not part of any determinism-checked export.
type Metrics struct {
	rx map[string]*obs.Counter
	tx map[string]*obs.Counter
	// connsOpened/connsClosed count accepted connections; sessions
	// counts hello-registered AP sessions.
	connsOpened *obs.Counter
	connsClosed *obs.Counter
	sessions    *obs.Counter
	// directives counts roam directives issued; noDirective counts
	// completed measurement rounds that decided not to roam.
	directives  *obs.Counter
	noDirective *obs.Counter
	// decisionLatency is the sim-time lag from measurement start (the
	// macro-away report) to the roam decision, taken from report
	// timestamps — never wall clock.
	decisionLatency *obs.Histogram
	// fanout is the number of APs asked to measure per round.
	fanout *obs.Histogram
	// Shard-pipeline conservation counters: every routed report counts
	// once in shardReceived and once in shardProcessed or shardDropped.
	shardReceived  *obs.Counter
	shardProcessed *obs.Counter
	shardDropped   *obs.Counter
	// outDropped counts outbound messages shed to a full session queue;
	// disconnects counts sessions closed by PolicyDisconnect.
	outDropped  *obs.Counter
	disconnects *obs.Counter
	// batchEntries samples the size of accepted report batches;
	// batchRejected counts rejected batches and entries.
	batchEntries  *obs.Histogram
	batchRejected *obs.Counter
	tr            *obs.SyncTracer
}

// messageTypes lists every protocol message, for counter pre-creation.
var messageTypes = []string{
	TypeHello, TypeMeasureRequest, TypeMeasureReport, TypeRoamDirective, TypeReportBatch,
}

// NewMetrics creates the controller metric handles on reg, tracing
// into tr (either may be nil).
func NewMetrics(reg *obs.Registry, tr *obs.SyncTracer) *Metrics {
	if reg == nil && tr == nil {
		return nil
	}
	m := &Metrics{
		rx:              make(map[string]*obs.Counter, len(messageTypes)),
		tx:              make(map[string]*obs.Counter, len(messageTypes)),
		connsOpened:     reg.Counter("ctlproto.conns.opened"),
		connsClosed:     reg.Counter("ctlproto.conns.closed"),
		sessions:        reg.Counter("ctlproto.sessions"),
		directives:      reg.Counter("ctlproto.roam.directives"),
		noDirective:     reg.Counter("ctlproto.roam.no-directive"),
		decisionLatency: reg.Histogram("ctlproto.decision-latency_s", 0.01, 0.05, 0.1, 0.5, 1, 2, 5),
		fanout:          reg.Histogram("ctlproto.measure.fanout", 1, 2, 4, 8, 16, 32, 64),
		shardReceived:   reg.Counter("ctlproto.shard.received"),
		shardProcessed:  reg.Counter("ctlproto.shard.processed"),
		shardDropped:    reg.Counter("ctlproto.shard.dropped"),
		outDropped:      reg.Counter("ctlproto.out.dropped"),
		disconnects:     reg.Counter("ctlproto.disconnects"),
		batchEntries:    reg.Histogram("ctlproto.batch.entries", 1, 2, 4, 8, 16, 32, 64, 128, 256, 512),
		batchRejected:   reg.Counter("ctlproto.batch.rejected"),
		tr:              tr,
	}
	for _, mt := range messageTypes {
		m.rx[mt] = reg.Counter("ctlproto.rx." + mt)
		m.tx[mt] = reg.Counter("ctlproto.tx." + mt)
	}
	return m
}

func (m *Metrics) observeRx(msgType string) {
	if m == nil {
		return
	}
	m.rx[msgType].Inc() // unknown types map to nil → no-op
}

func (m *Metrics) observeTx(msgType string) {
	if m == nil {
		return
	}
	m.tx[msgType].Inc()
}

func (m *Metrics) observeConn(opened bool) {
	if m == nil {
		return
	}
	if opened {
		m.connsOpened.Inc()
	} else {
		m.connsClosed.Inc()
	}
}

func (m *Metrics) observeSession(apID string) {
	if m == nil {
		return
	}
	m.sessions.Inc()
	m.tr.Emit(0, "ctlproto", "session", 0, 0, apID)
}

func (m *Metrics) observeMeasureStart(t float64, fanout int) {
	if m == nil {
		return
	}
	m.fanout.Observe(float64(fanout))
	m.tr.Emit(t, "ctlproto", "measure-start", float64(fanout), 0, "")
}

func (m *Metrics) observeShardReceived() {
	if m == nil {
		return
	}
	m.shardReceived.Inc()
}

func (m *Metrics) observeShardProcessed() {
	if m == nil {
		return
	}
	m.shardProcessed.Inc()
}

func (m *Metrics) observeShardDropped() {
	if m == nil {
		return
	}
	m.shardDropped.Inc()
}

func (m *Metrics) observeOutDropped() {
	if m == nil {
		return
	}
	m.outDropped.Inc()
}

func (m *Metrics) observeDisconnect() {
	if m == nil {
		return
	}
	m.disconnects.Inc()
}

func (m *Metrics) observeBatch(entries int) {
	if m == nil {
		return
	}
	m.batchEntries.Observe(float64(entries))
}

func (m *Metrics) observeBatchReject() {
	if m == nil {
		return
	}
	m.batchRejected.Inc()
}

func (m *Metrics) observeDecision(t, latency float64, roamed bool) {
	if m == nil {
		return
	}
	if roamed {
		m.directives.Inc()
		m.tr.Emit(t, "ctlproto", "roam-directive", latency, 0, "")
	} else {
		m.noDirective.Inc()
	}
	m.decisionLatency.Observe(latency)
}
