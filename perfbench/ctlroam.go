package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mobiwlan/internal/ctlproto"
	"mobiwlan/internal/loadgen"
	"mobiwlan/internal/obs"
	"mobiwlan/internal/transport"
)

// ctlSize sizes the ctl-roam fleet.
type ctlSize struct {
	aps, clientsPerAP, reportsPerClient int
}

// ctlRoamSize: two AP sessions of 1000 clients, 48 reports each (a
// macro-away trigger every 12th), about 96k reports and 6k roam rounds a
// pass.
var ctlRoamSize = ctlSize{aps: 2, clientsPerAP: 1000, reportsPerClient: 48}

// passTimeout bounds one pass: a round still open then counts as timed
// out, so a stalled controller fails the run instead of hanging it.
const passTimeout = 60 * time.Second

func ctlConfig(size ctlSize, seed uint64) loadgen.Config {
	return loadgen.Config{
		Seed:             seed,
		APs:              size.aps,
		ClientsPerAP:     size.clientsPerAP,
		ReportsPerClient: size.reportsPerClient,
		Telemetry:        transport.Telemetry{Period: 1, Burst: 4},
		RoamEvery:        12,
		MinInterval:      1,
		BatchSize:        64,
	}
}

// ctlEnv is one pass's controller and AP sessions.
type ctlEnv struct {
	cfg    loadgen.Config
	scheds [][]loadgen.Report
	// clientSimS is the schedules' simulated client-seconds.
	clientSimS float64

	reg   *obs.Registry
	srv   *ctlproto.Server
	conns []*ctlproto.APConn
	dirs  []chan struct{}
	resp  []*tracer

	respWG   sync.WaitGroup
	answered atomic.Uint64
	errs     atomic.Uint64
}

// setupCtl is ctl-roam's set-up: it generates the schedules, starts an
// embedded controller with two shards on loopback and registers every AP
// session, each with a responder that answers measure requests.
func setupCtl(size ctlSize, seed uint64, traced bool) (*ctlEnv, error) {
	cfg := ctlConfig(size, seed)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := &ctlEnv{cfg: cfg, reg: obs.NewRegistry()}
	for i := 0; i < cfg.APs; i++ {
		s := loadgen.GenerateAP(cfg, i)
		e.scheds = append(e.scheds, s)
		if n := len(s); n > 0 {
			e.clientSimS += float64(cfg.ClientsPerAP) * s[n-1].Rep.Time
		}
	}
	coord := ctlproto.NewCoordinator()
	coord.MinInterval = cfg.MinInterval
	coord.Met = ctlproto.NewMetrics(e.reg, nil)
	srv, err := ctlproto.NewServerConfig("127.0.0.1:0", coord, ctlproto.Config{
		Shards:         2,
		QueueDepth:     16384,
		SendQueueDepth: 256,
	})
	if err != nil {
		return nil, err
	}
	srv.SetMetrics(coord.Met)
	e.srv = srv
	for i := 0; i < cfg.APs; i++ {
		conn, err := ctlproto.Dial(srv.Addr(), loadgen.APID(i))
		if err != nil {
			e.close()
			return nil, fmt.Errorf("dialing %s: %w", loadgen.APID(i), err)
		}
		var tr *tracer
		if traced {
			tr = newTracer()
		}
		dir := make(chan struct{}, 1)
		e.conns = append(e.conns, conn)
		e.dirs = append(e.dirs, dir)
		e.resp = append(e.resp, tr)
		e.respWG.Add(1)
		go e.respond(conn, dir, tr)
	}
	deadline := time.Now().Add(30 * time.Second)
	for len(srv.APs()) < cfg.APs {
		if time.Now().After(deadline) {
			e.close()
			return nil, fmt.Errorf("only %d/%d AP sessions registered", len(srv.APs()), cfg.APs)
		}
		time.Sleep(100 * time.Microsecond)
	}
	return e, nil
}

// respond answers measure requests and hands roam directives to the
// AP's sender until the connection closes.
func (e *ctlEnv) respond(conn *ctlproto.APConn, dir chan<- struct{}, tr *tracer) {
	defer e.respWG.Done()
	for env := range conn.Inbound {
		switch env.Type {
		case ctlproto.TypeMeasureRequest:
			tr.begin(spanCtlAnswer)
			req, err := ctlproto.DecodePayload[ctlproto.MeasureRequest](env)
			if err == nil {
				err = conn.ReportMeasurement(loadgen.MeasureAnswer(conn.ID, req))
			}
			tr.end()
			if err != nil {
				e.errs.Add(1)
				continue
			}
			e.answered.Add(1)
		case ctlproto.TypeRoamDirective:
			if _, err := ctlproto.DecodePayload[ctlproto.RoamDirective](env); err != nil {
				e.errs.Add(1)
				continue
			}
			select {
			case dir <- struct{}{}:
			default: // a directive nobody waits for: the loop is broken
				e.errs.Add(1)
			}
		}
	}
}

// apStats is one AP sender's pass.
type apStats struct {
	reports, triggers, directives, timeouts, errors int
	// roundMs are the round latencies: a trigger's batch flush to the
	// AP receiving its roam directive.
	roundMs []float64
}

// sendAP replays AP i's schedule in v2 delta batches. After each
// macro-away trigger it flushes the pending batch and blocks until the
// round's roam directive arrives: a closed loop.
func (e *ctlEnv) sendAP(ctx context.Context, i int, tr *tracer) apStats {
	t0 := nanotime()
	conn := e.conns[i]
	enc := ctlproto.BatchEncoder{APID: conn.ID, SnapshotEvery: e.cfg.SnapshotEvery}
	var batch ctlproto.ReportBatch
	var st apStats
	flush := func() {
		tr.begin(spanCtlEncode)
		ok := enc.Flush(&batch)
		tr.end()
		if !ok {
			return
		}
		tr.begin(spanCtlSend)
		err := conn.ReportBatch(&batch)
		tr.end()
		if err != nil {
			st.errors++
		}
	}
	sched := e.scheds[i]
	for idx := range sched {
		r := &sched[idx]
		tr.begin(spanCtlEncode)
		err := enc.Add(&r.Rep)
		full := enc.Len() >= e.cfg.BatchSize
		tr.end()
		if err != nil {
			st.errors++
			continue
		}
		st.reports++
		if full {
			flush()
		}
		if !r.Trigger {
			continue
		}
		st.triggers++
		start := nanotime()
		flush()
		tr.begin(spanCtlRoundWait)
		select {
		case <-e.dirs[i]:
			st.directives++
			st.roundMs = append(st.roundMs, float64(nanotime()-start)/1e6)
		case <-ctx.Done():
			st.timeouts++
		}
		tr.end()
	}
	flush()
	tr.addBusy(nanotime() - t0)
	return st
}

// ctlPass is one pass's outcome.
type ctlPass struct {
	wallNs     int64
	reports    int
	triggers   int
	directives int
	roundMs    []float64
	bad        []string
	// Controller registry readings.
	received, processed, dropped, outDropped uint64
	fanoutSum, fanoutN, entriesSum, entriesN float64
}

// stream runs both AP senders concurrently and waits until the
// controller has taken in every report; the wall time ends there.
func (e *ctlEnv) stream(senders []*tracer) ctlPass {
	ctx, cancel := context.WithTimeout(context.Background(), passTimeout)
	defer cancel()
	stats := make([]apStats, len(e.conns))
	var wg sync.WaitGroup
	t0 := nanotime()
	for i := range e.conns {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			stats[i] = e.sendAP(ctx, i, senders[i])
		}(i)
	}
	wg.Wait()

	var p ctlPass
	errs := 0
	timeouts := 0
	for _, s := range stats {
		p.reports += s.reports
		p.triggers += s.triggers
		p.directives += s.directives
		p.roundMs = append(p.roundMs, s.roundMs...)
		errs += s.errors
		timeouts += s.timeouts
	}
	// Every report is counted received once the controller decoded it,
	// and processed or dropped once its shard took it.
	received := e.reg.Counter("ctlproto.shard.received")
	processed := e.reg.Counter("ctlproto.shard.processed")
	dropped := e.reg.Counter("ctlproto.shard.dropped")
	want := uint64(p.reports) + e.answered.Load()
	for {
		r := received.Value()
		if r >= want && processed.Value()+dropped.Value() == r {
			break
		}
		if ctx.Err() != nil {
			p.bad = append(p.bad, fmt.Sprintf("controller took in %d of %d reports", r, want))
			break
		}
		time.Sleep(50 * time.Microsecond)
	}
	p.wallNs = nanotime() - t0
	if errs > 0 {
		p.bad = append(p.bad, fmt.Sprintf("%d send errors", errs))
	}
	if timeouts > 0 {
		p.bad = append(p.bad, fmt.Sprintf("%d rounds timed out", timeouts))
	}
	if p.directives != p.triggers {
		p.bad = append(p.bad, fmt.Sprintf("%d directives for %d triggers", p.directives, p.triggers))
	}
	return p
}

// close tears the pass down: AP sessions first (their responders exit),
// then the controller, which drains its shards.
func (e *ctlEnv) close() {
	for _, c := range e.conns {
		_ = c.Close()
	}
	e.respWG.Wait()
	if e.srv != nil {
		_ = e.srv.Close()
	}
}

// finish closes the pass and reads the controller's conservation and
// batching counters into p.
func (e *ctlEnv) finish(p *ctlPass) {
	e.close()
	p.received = e.reg.Counter("ctlproto.shard.received").Value()
	p.processed = e.reg.Counter("ctlproto.shard.processed").Value()
	p.dropped = e.reg.Counter("ctlproto.shard.dropped").Value()
	p.outDropped = e.reg.Counter("ctlproto.out.dropped").Value()
	// ctlproto.NewMetrics created both; the bound argument is ignored.
	fan := e.reg.Histogram("ctlproto.measure.fanout", 1)
	ent := e.reg.Histogram("ctlproto.batch.entries", 1)
	p.fanoutSum, p.fanoutN = fan.Sum(), float64(fan.Count())
	p.entriesSum, p.entriesN = ent.Sum(), float64(ent.Count())
	if n := e.errs.Load(); n > 0 {
		p.bad = append(p.bad, fmt.Sprintf("%d responder errors", n))
	}
	if p.received != p.processed+p.dropped {
		p.bad = append(p.bad, fmt.Sprintf("received %d != processed %d + dropped %d", p.received, p.processed, p.dropped))
	}
	if p.dropped > 0 || p.outDropped > 0 {
		p.bad = append(p.bad, fmt.Sprintf("controller dropped %d reports and %d outbound messages", p.dropped, p.outDropped))
	}
	if p.entriesSum != float64(p.reports) {
		p.bad = append(p.bad, fmt.Sprintf("controller decoded %v batch entries of %d reports sent", p.entriesSum, p.reports))
	}
}

// ctlRoam is the control-plane workload: an embedded ctlproto.Server
// with two shards, fed by two AP sessions replaying loadgen schedules in
// a closed loop. It never touches the simulator.
func ctlRoam(size ctlSize) workload {
	return workload{
		name: "ctl-roam",
		e2e: func(p params) (outcome, error) {
			// The rates are the best pass's: a neighbour on a shared host
			// slows whole passes, not the controller.
			out := newOutcome()
			var setups, rates, simRates []float64
			start := nanotime()
			for k := 0; k == 0 || secondsSince(start) < p.seconds; k++ {
				t0 := nanotime()
				e, err := setupCtl(size, subSeed(p.seed, k), false)
				if err != nil {
					return out, err
				}
				setups = append(setups, float64(nanotime()-t0)/1e9)
				pass := e.stream(make([]*tracer, len(e.conns)))
				e.finish(&pass)
				out.attempted += pass.reports + pass.triggers
				out.fail(p.log, pass.bad)
				wall := float64(pass.wallNs) / 1e9
				rates = append(rates, float64(pass.entriesSum)/wall)
				simRates = append(simRates, e.clientSimS/wall)
			}
			m := out.metrics
			m.put("setup_s", quantile(setups, 0.5), "s")
			m.put("client_sim_s_per_s", quantile(simRates, 1), "s/s")
			m.put("reports_per_s", quantile(rates, 1), "1/s")
			m.put("peak_rss_mb", peakRSSMB(), "MB")
			_, _ = fmt.Fprintf(p.log, "passes=%d\n", len(setups))
			return out, nil
		},
		traced: func(p params) (outcome, error) {
			out := newOutcome()
			tr := newTracer()
			var rt runtimeDelta
			var untracedNs, tracedNs int64
			var clientSimS, reports float64
			var ctl ctlPass
			start := nanotime()
			for k := 0; k == 0 || secondsSince(start) < p.seconds; k++ {
				seed := subSeed(p.seed, k)
				for _, traced := range []bool{k%2 == 1, k%2 == 0} {
					e, err := setupCtl(size, seed, traced)
					if err != nil {
						return out, err
					}
					senders := make([]*tracer, len(e.conns))
					if traced {
						for i := range senders {
							senders[i] = newTracer()
						}
					}
					r0 := readRuntime()
					pass := e.stream(senders)
					r1 := readRuntime()
					e.finish(&pass)
					out.attempted += pass.reports + pass.triggers
					out.fail(p.log, pass.bad)
					if traced {
						tracedNs += pass.wallNs
						for _, t := range append(senders, e.resp...) {
							tr.merge(t)
						}
						continue
					}
					untracedNs += pass.wallNs
					rt.add(r0, r1)
					clientSimS += e.clientSimS
					reports += float64(pass.reports)
					ctl.received += pass.received
					ctl.dropped += pass.dropped
					ctl.outDropped += pass.outDropped
					ctl.fanoutSum += pass.fanoutSum
					ctl.fanoutN += pass.fanoutN
					ctl.entriesSum += pass.entriesSum
					ctl.entriesN += pass.entriesN
					ctl.roundMs = append(ctl.roundMs, pass.roundMs...)
				}
			}
			_, _ = fmt.Fprintf(p.log, "rounds=%d (trigger flush to roam directive, untraced passes)\n", len(ctl.roundMs))
			putLayers(out.metrics, tr, float64(tracedNs)/float64(untracedNs)-1, layerCounts{}, ctl, 0)
			rt.put(out.metrics, clientSimS, reports)
			return out, nil
		},
	}
}
