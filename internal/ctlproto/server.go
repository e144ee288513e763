package ctlproto

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"sync/atomic"
)

// OverflowPolicy says what the server does when a bounded queue is full:
// the message is always dropped (and counted), and PolicyDisconnect
// additionally closes the offending session so a persistently slow or
// stalled peer cannot keep shedding load silently.
type OverflowPolicy int

const (
	// PolicyDrop discards the overflowing message and increments the
	// drop counters; the session stays up.
	PolicyDrop OverflowPolicy = iota
	// PolicyDisconnect drops the message and closes the session.
	PolicyDisconnect
)

// String names the policy for flags and logs.
func (p OverflowPolicy) String() string {
	if p == PolicyDisconnect {
		return "disconnect"
	}
	return "drop"
}

// Config sizes the server's sharding and backpressure. The zero value
// gets the defaults below.
type Config struct {
	// Shards is the number of report-processing goroutines. Clients are
	// assigned to shards by name hash, so one client's reports are
	// always handled by the same shard, in arrival order, with no
	// cross-shard locking.
	Shards int
	// QueueDepth is each shard's inbound report queue. A full queue
	// applies Policy to the arriving report.
	QueueDepth int
	// SendQueueDepth is each session's outbound queue, drained by a
	// per-session writer goroutine. A peer that stops reading fills it;
	// further sends apply Policy instead of blocking the shard.
	SendQueueDepth int
	// Policy is the overflow behaviour for both queues (default
	// PolicyDrop).
	Policy OverflowPolicy
}

// Sharding and backpressure defaults (see Config).
const (
	DefaultShards         = 4
	DefaultQueueDepth     = 1024
	DefaultSendQueueDepth = 64
)

func (cfg Config) withDefaults() Config {
	if cfg.Shards <= 0 {
		cfg.Shards = DefaultShards
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.SendQueueDepth <= 0 {
		cfg.SendQueueDepth = DefaultSendQueueDepth
	}
	return cfg
}

// Server is the WLAN controller endpoint: it accepts AP connections,
// routes their reports through per-shard Coordinators, and pushes
// measurement requests and roam directives back to the right APs.
//
// Report flow: a connection goroutine decodes frames (expanding report
// batches through a per-session DeltaDecoder), then offers each report
// to the owning client's shard queue without blocking. Each shard is a
// single goroutine with its own Coordinator (clients are partitioned by
// name hash, so shard states are disjoint and the hot path takes no
// cross-shard locks). Outbound messages go through per-session bounded
// queues and writer goroutines, so a stalled consumer never delays a
// shard. Conservation holds exactly per session and globally:
// received = processed + dropped.
type Server struct {
	cfg Config
	ln  net.Listener
	// Logf, when set, receives protocol-level diagnostics.
	Logf func(format string, args ...any)
	// met collects RPC counts and decision latencies; the accept loop is
	// already running when SetMetrics is called, so the handle is an
	// atomic pointer rather than a plain field.
	met atomic.Pointer[Metrics]
	// table is the copy-on-write session table: lock-free reads on the
	// report path, mutations under mu.
	table  atomic.Pointer[sessionTable]
	shards []*shard

	mu      sync.Mutex
	conns   map[net.Conn]struct{}
	done    chan struct{}
	wg      sync.WaitGroup // accept loop, connection readers, writers
	shardWG sync.WaitGroup // shard run loops
}

// sessionTable is an immutable snapshot of the registered sessions.
// ids stays sorted: it feeds MeasureRequest fan-out, so it must not
// inherit Go's randomized map iteration order.
type sessionTable struct {
	ids  []string
	byID map[string]*apSession
}

var emptyTable = &sessionTable{byID: map[string]*apSession{}}

type outMsg struct {
	msgType string
	payload any
}

// apSession is one registered AP connection. The reader goroutine owns
// the conn's read side and the session's DeltaDecoder; the writer
// goroutine owns the write side, fed by the bounded out queue. The
// conservation counters are atomics because the reader increments
// received/dropped while shards increment processed.
type apSession struct {
	id     string
	conn   net.Conn
	out    chan outMsg
	closed chan struct{}
	once   sync.Once

	received  atomic.Uint64
	processed atomic.Uint64
	dropped   atomic.Uint64
	outDrops  atomic.Uint64
}

// close shuts the session down once: the conn unblocks the reader, the
// closed channel unblocks the writer.
func (sess *apSession) close() {
	sess.once.Do(func() {
		close(sess.closed)
		_ = sess.conn.Close()
	})
}

func (sess *apSession) writeLoop(s *Server) {
	defer s.wg.Done()
	for {
		select {
		case m := <-sess.out:
			// Count at dequeue: tx means "handed to the transport", and
			// counting before the write keeps the counter ordered before
			// the peer can observe the message.
			s.metrics().observeTx(m.msgType)
			if err := WriteMsg(sess.conn, m.msgType, m.payload); err != nil {
				s.logf("ctlproto: %s: write: %v", sess.id, err)
				sess.close()
			}
		case <-sess.closed:
			return
		}
	}
}

// shard is one report-processing goroutine plus its private state: a
// Coordinator holding only this shard's clients and a reusable fan-out
// buffer. Nothing here is shared across shards.
type shard struct {
	srv     *Server
	coord   *Coordinator
	in      chan shardMsg
	targets []string
}

const (
	kindMobility uint8 = iota
	kindMeasure
)

// shardMsg is one routed report. It travels by value through the
// pre-allocated shard channel, so the steady-state report path does not
// allocate per message.
type shardMsg struct {
	kind uint8
	sess *apSession
	mob  MobilityReport
	meas MeasureReport
}

func (sh *shard) run() {
	defer sh.srv.shardWG.Done()
	for m := range sh.in {
		sh.process(&m)
	}
}

func (sh *shard) process(m *shardMsg) {
	s := sh.srv
	tab := s.table.Load()
	switch m.kind {
	case kindMobility:
		sh.targets = sh.coord.OnMobilityReportInto(&m.mob, tab.ids, sh.targets)
		if len(sh.targets) > 0 {
			req := MeasureRequest{Client: m.mob.Client, Time: m.mob.Time}
			for _, ap := range sh.targets {
				s.sendTo(tab, ap, TypeMeasureRequest, req)
			}
		}
	case kindMeasure:
		if d, ok := sh.coord.OnMeasureReport(m.meas); ok {
			s.sendTo(tab, d.ServingAP, TypeRoamDirective, d)
		}
	}
	if m.sess != nil {
		m.sess.processed.Add(1)
	}
	s.metrics().observeShardProcessed()
}

// shardIndex assigns a client to a shard by FNV-1a hash of its name
// (hand-rolled: hash/fnv's constructor allocates).
func shardIndex(client string, n int) int {
	h := uint32(2166136261)
	for i := 0; i < len(client); i++ {
		h ^= uint32(client[i])
		h *= 16777619
	}
	return int(h % uint32(n))
}

// NewServerConfig starts a controller listening on addr (e.g.
// "127.0.0.1:0") with the given sharding and backpressure settings; the
// zero Config takes the defaults. coord is the decision-logic prototype: its
// thresholds, metrics and decision log are captured per shard at this
// point (later mutation of coord is not seen by the server).
func NewServerConfig(addr string, coord *Coordinator, cfg Config) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("ctlproto: listen: %w", err)
	}
	s := &Server{
		cfg:   cfg.withDefaults(),
		ln:    ln,
		conns: map[net.Conn]struct{}{},
		done:  make(chan struct{}),
	}
	s.table.Store(emptyTable)
	s.shards = make([]*shard, s.cfg.Shards)
	for i := range s.shards {
		s.shards[i] = &shard{
			srv:   s,
			coord: coord.shardClone(),
			in:    make(chan shardMsg, s.cfg.QueueDepth),
		}
		s.shardWG.Add(1)
		go s.shards[i].run()
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// shardClone copies the coordinator's configuration (thresholds,
// metrics, decision log) into a fresh instance with empty client state.
func (c *Coordinator) shardClone() *Coordinator {
	return &Coordinator{
		MinInterval: c.MinInterval,
		MaxFanout:   c.MaxFanout,
		Met:         c.Met,
		Log:         c.Log,
		clients:     map[string]*clientState{},
	}
}

// Addr returns the controller's listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// SetMetrics attaches a telemetry bundle (safe at any time, including
// while APs are connected; nil detaches). Counters observed before the
// call are lost — attach right after NewServerConfig to see the full lifecycle.
func (s *Server) SetMetrics(m *Metrics) { s.met.Store(m) }

// metrics returns the current telemetry bundle; nil disables everything.
func (s *Server) metrics() *Metrics { return s.met.Load() }

// Close stops the controller: it stops accepting, closes every live
// connection, waits for the readers and writers to exit, then closes
// the shard queues and lets the shards drain them fully — so after
// Close returns, received = processed + dropped holds exactly.
func (s *Server) Close() error {
	close(s.done)
	err := s.ln.Close()
	// Close every live connection, not just hello-registered sessions: a
	// conn whose hello is still in flight would otherwise keep serveConn
	// blocked in ReadMsg and deadlock the Wait below.
	s.mu.Lock()
	for conn := range s.conns {
		_ = conn.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	// All producers are gone; drain the shards.
	for _, sh := range s.shards {
		close(sh.in)
	}
	s.shardWG.Wait()
	return err
}

// APs returns the currently registered AP IDs, sorted.
func (s *Server) APs() []string {
	tab := s.table.Load()
	out := make([]string, len(tab.ids))
	copy(out, tab.ids)
	return out
}

// SessionStats reports a registered session's inbound conservation
// counters (received = processed + dropped once the pipeline is idle)
// and how many outbound messages were shed to its queue bound.
func (s *Server) SessionStats(apID string) (received, processed, dropped, outDropped uint64, ok bool) {
	sess := s.table.Load().byID[apID]
	if sess == nil {
		return 0, 0, 0, 0, false
	}
	return sess.received.Load(), sess.processed.Load(), sess.dropped.Load(), sess.outDrops.Load(), true
}

func (s *Server) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.done:
				return
			default:
				s.logf("ctlproto: accept: %v", err)
				return
			}
		}
		if !s.track(conn) {
			_ = conn.Close() // raced with Close: shut the conn down ourselves
			return
		}
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// track records an accepted connection so Close can terminate it. It
// reports false when the server is already shutting down, in which case
// Close will not see the conn and the caller must close it.
func (s *Server) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case <-s.done:
		return false
	default:
	}
	s.conns[conn] = struct{}{}
	return true
}

// register publishes a session in the copy-on-write table.
func (s *Server) register(sess *apSession) {
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.table.Load()
	byID := make(map[string]*apSession, len(old.byID)+1)
	for id, v := range old.byID {
		byID[id] = v
	}
	byID[sess.id] = sess
	ids := make([]string, 0, len(byID))
	for id := range byID {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	s.table.Store(&sessionTable{ids: ids, byID: byID})
}

// unregister removes a session, unless a newer session took its ID.
func (s *Server) unregister(sess *apSession) {
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.table.Load()
	if old.byID[sess.id] != sess {
		return
	}
	byID := make(map[string]*apSession, len(old.byID))
	for id, v := range old.byID {
		if v != sess {
			byID[id] = v
		}
	}
	ids := make([]string, 0, len(byID))
	for id := range byID {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	s.table.Store(&sessionTable{ids: ids, byID: byID})
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	s.metrics().observeConn(true)
	defer func() {
		_ = conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.metrics().observeConn(false)
	}()

	// First message must be a Hello.
	br := bufio.NewReader(conn)
	env, err := ReadMsg(br)
	if err != nil {
		s.logf("ctlproto: connection without hello: %v", err)
		return
	}
	if env.Type != TypeHello {
		s.logf("ctlproto: connection without hello: first message is %q", env.Type)
		return
	}
	hello, err := DecodePayload[Hello](env)
	if err != nil {
		s.logf("ctlproto: bad hello: %v", err)
		return
	}
	if hello.APID == "" || len(hello.APID) > MaxIDLen {
		s.logf("ctlproto: bad hello: ap_id of %d bytes", len(hello.APID))
		return
	}
	s.metrics().observeRx(TypeHello)
	s.metrics().observeSession(hello.APID)
	sess := &apSession{
		id:     hello.APID,
		conn:   conn,
		out:    make(chan outMsg, s.cfg.SendQueueDepth),
		closed: make(chan struct{}),
	}
	s.register(sess)
	defer s.unregister(sess)
	defer sess.close()
	s.wg.Add(1)
	go sess.writeLoop(s)

	var rs readState
	for {
		env, err := ReadMsg(br)
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				s.logf("ctlproto: %s: read: %v", sess.id, err)
			}
			return
		}
		if err := s.handle(sess, &rs, env); err != nil {
			s.logf("ctlproto: %s: %v", sess.id, err)
		}
	}
}

// readState is a session reader's decode state, reused across frames:
// the batch decoder, the batch every report-batch frame decodes into,
// and the report each entry expands into (shardMsg copies it on
// enqueue).
type readState struct {
	dec   DeltaDecoder
	batch ReportBatch
	rep   MobilityReport
}

func (s *Server) handle(sess *apSession, rs *readState, env Envelope) error {
	s.metrics().observeRx(env.Type)
	switch env.Type {
	case TypeReportBatch:
		b := &rs.batch
		if err := decodeBatchInto(env, b); err != nil {
			return err
		}
		if err := CheckBatch(b); err != nil {
			s.metrics().observeBatchReject()
			return err
		}
		if b.APID != sess.id {
			s.metrics().observeBatchReject()
			return fmt.Errorf("batch ap_id %q from session %q", b.APID, sess.id)
		}
		s.metrics().observeBatch(len(b.Entries))
		for i := range b.Entries {
			if err := rs.dec.Apply(b.APID, &b.Entries[i], &rs.rep); err != nil {
				// A bad entry invalidates only itself: later entries
				// (and later batches) still decode against whatever
				// state their own snapshots establish.
				s.metrics().observeBatchReject()
				continue
			}
			s.route(sess, shardMsg{kind: kindMobility, sess: sess, mob: rs.rep})
		}
	case TypeMeasureReport:
		r, err := DecodePayload[MeasureReport](env)
		if err != nil {
			return err
		}
		s.route(sess, shardMsg{kind: kindMeasure, sess: sess, meas: r})
	default:
		return fmt.Errorf("unexpected message type %q", env.Type)
	}
	return nil
}

// route offers one report to its client's shard without blocking. On a
// full queue the report is dropped and counted; PolicyDisconnect also
// closes the session. Every report is counted exactly once as received
// and exactly once as processed or dropped.
func (s *Server) route(sess *apSession, m shardMsg) {
	client := m.mob.Client
	if m.kind == kindMeasure {
		client = m.meas.Client
	}
	sess.received.Add(1)
	s.metrics().observeShardReceived()
	sh := s.shards[shardIndex(client, len(s.shards))]
	select {
	case sh.in <- m:
	default:
		sess.dropped.Add(1)
		s.metrics().observeShardDropped()
		if s.cfg.Policy == PolicyDisconnect {
			s.metrics().observeDisconnect()
			s.logf("ctlproto: %s: shard queue full, disconnecting", sess.id)
			sess.close()
		}
	}
}

// sendTo enqueues one outbound message on an AP's session queue without
// blocking the calling shard. On a full queue the message is shed and
// counted; PolicyDisconnect also closes the session.
func (s *Server) sendTo(tab *sessionTable, apID, msgType string, payload any) {
	sess := tab.byID[apID]
	if sess == nil {
		s.logf("ctlproto: no session for AP %s", apID)
		return
	}
	select {
	case sess.out <- outMsg{msgType: msgType, payload: payload}:
	default:
		sess.outDrops.Add(1)
		s.metrics().observeOutDropped()
		if s.cfg.Policy == PolicyDisconnect {
			s.metrics().observeDisconnect()
			s.logf("ctlproto: %s: send queue full, disconnecting", sess.id)
			sess.close()
		}
	}
}

// APConn is an AP's client connection to the controller.
type APConn struct {
	ID   string
	conn net.Conn
	wmu  sync.Mutex
	// Inbound delivers controller-initiated messages (MeasureRequest,
	// RoamDirective). The channel closes when the connection drops.
	Inbound chan Envelope
}

// Dial connects an AP to the controller and registers it with a hello.
func Dial(addr, apID string) (*APConn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("ctlproto: dial: %w", err)
	}
	a := &APConn{ID: apID, conn: conn, Inbound: make(chan Envelope, 16)}
	if err := WriteMsg(conn, TypeHello, Hello{APID: apID}); err != nil {
		_ = conn.Close()
		return nil, err
	}
	go a.readLoop()
	return a, nil
}

func (a *APConn) readLoop() {
	defer close(a.Inbound)
	br := bufio.NewReader(a.conn)
	for {
		env, err := ReadMsg(br)
		if err != nil {
			return
		}
		a.Inbound <- env
	}
}

// ReportBatch sends a delta/snapshot batch of mobility reports, stamped
// with this connection's ID (the server rejects mismatched batches).
func (a *APConn) ReportBatch(b *ReportBatch) error {
	b.APID = a.ID
	a.wmu.Lock()
	defer a.wmu.Unlock()
	return WriteMsg(a.conn, TypeReportBatch, b)
}

// ReportMeasurement answers a MeasureRequest.
func (a *APConn) ReportMeasurement(rep MeasureReport) error {
	rep.APID = a.ID
	a.wmu.Lock()
	defer a.wmu.Unlock()
	return WriteMsg(a.conn, TypeMeasureReport, rep)
}

// Close drops the connection.
func (a *APConn) Close() error { return a.conn.Close() }
