package ctlproto

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"mobiwlan/internal/core"
)

// similarDB admits a measured candidate within this many dB of the RSSI
// that opened its round: the paper's §3.1 band, which
// roaming.MobilityAware applies in the simulator. ctlproto keeps its own
// copy because importing roaming would link the simulator into the
// controller.
const similarDB = 3

// Coordinator is the controller's decision logic (paper §3.1), independent
// of the transport: feed it mobility and measurement reports, and it emits
// measurement requests and roam directives. Safe for concurrent use.
type Coordinator struct {
	// MinInterval throttles consecutive roams of the same client, in
	// report-time seconds.
	MinInterval float64
	// MaxFanout caps how many APs are asked to measure per round; 0
	// means everyone but the serving AP. When capped, the targets are
	// the APs cyclically following the serving AP in the sorted AP
	// list — deterministic, and spread across the fleet rather than
	// always hammering the alphabetically-first APs.
	MaxFanout int
	// Met, when set, collects roam-decision counters and latencies.
	Met *Metrics
	// Log, when set, records every completed measurement round for
	// deterministic run-to-run comparison (see DecisionLog).
	Log *DecisionLog

	mu      sync.Mutex
	clients map[string]*clientState
}

type clientState struct {
	servingAP   string
	servingRSSI float64
	state       core.State
	lastRoam    float64
	measuring   bool
	// measureStart is the report timestamp that opened the current
	// measurement round; decision latency is measured against it in
	// report (sim) time.
	measureStart float64
	// measureAP/measureRSSI freeze the serving view at round start, so
	// the decision compares against the RSSI that triggered it, not
	// whatever report raced in while neighbors were measuring.
	measureAP   string
	measureRSSI float64
	// expected is the number of measure reports that completes the
	// round, fixed at round start.
	expected int
	reports  map[string]MeasureReport
}

// NewCoordinator returns a coordinator with the paper's thresholds.
func NewCoordinator() *Coordinator {
	return &Coordinator{
		MinInterval: 3,
		clients:     map[string]*clientState{},
	}
}

// OnMobilityReportInto ingests a serving AP's classifier output. When the
// client is macro-away (and not throttled), it returns the AP IDs the
// controller should send MeasureRequests to; otherwise it returns an
// empty slice. It is allocation-free for the server's report hot path:
// targets are appended into the caller's buffer (reset to [:0] first)
// and the per-client state is reused across rounds. allAPs must be
// sorted ascending (the server's session table keeps it that way); the
// cap on targets is c.MaxFanout. The returned slice aliases the targets
// buffer.
//
//mobilint:hotpath
func (c *Coordinator) OnMobilityReportInto(rep *MobilityReport, allAPs []string, targets []string) []string {
	targets = targets[:0]
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.clients == nil {
		c.clients = map[string]*clientState{}
	}
	st := c.clients[rep.Client]
	if st == nil {
		st = &clientState{lastRoam: -1e18, reports: map[string]MeasureReport{}}
		c.clients[rep.Client] = st
	}
	st.servingAP = rep.APID
	st.servingRSSI = rep.RSSIdBm
	st.state = rep.State
	if rep.State != core.StateMacroAway || rep.Time-st.lastRoam < c.MinInterval || st.measuring {
		return targets
	}
	n := len(allAPs)
	k := c.MaxFanout
	if k <= 0 || k > n-1 {
		k = n - 1
	}
	if k > 0 {
		// Walk the sorted AP list cyclically from just past the serving
		// AP; SearchStrings finds its slot (or insertion point).
		idx := sort.SearchStrings(allAPs, rep.APID)
		for off := 1; off <= n && len(targets) < k; off++ {
			ap := allAPs[(idx+off)%n]
			if ap != rep.APID {
				targets = append(targets, ap)
			}
		}
	}
	if len(targets) == 0 {
		// Nobody to ask (single-AP fleet): don't open a round that could
		// never complete.
		return targets
	}
	st.measuring = true
	st.measureStart = rep.Time
	st.measureAP = rep.APID
	st.measureRSSI = rep.RSSIdBm
	st.expected = len(targets)
	for ap := range st.reports {
		delete(st.reports, ap)
	}
	c.Met.observeMeasureStart(rep.Time, len(targets))
	return targets
}

// OnMeasureReport ingests a neighbor AP's measurement. Once every AP
// asked when OnMobilityReportInto opened the round has answered, it
// decides: if a candidate with similar-or-better RSSI that the client is
// approaching exists, it returns a RoamDirective (and true); otherwise
// (nil, false) once measurement completes, or (nil, false) while reports
// are still pending. The count is fixed at round start, so sessions
// joining or leaving mid-round cannot stall or double-fire the decision.
//
// The decision timestamp is the maximum report time in the round — an
// order-independent aggregate — so decision logs are identical no
// matter how socket scheduling interleaved the arrivals.
func (c *Coordinator) OnMeasureReport(rep MeasureReport) (*RoamDirective, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.clients[rep.Client]
	if st == nil || !st.measuring {
		return nil, false
	}
	st.reports[rep.APID] = rep
	if len(st.reports) < st.expected {
		return nil, false
	}
	st.measuring = false
	roundTime := st.measureStart
	for _, r := range st.reports {
		if r.Time > roundTime {
			roundTime = r.Time
		}
	}
	latency := roundTime - st.measureStart
	// Decision: strongest approaching candidate within similarDB of the
	// RSSI that opened the round.
	type cand struct {
		ap   string
		rssi float64
	}
	var cands []cand
	for ap, r := range st.reports {
		if r.Approaching && r.RSSIdBm >= st.measureRSSI-similarDB {
			cands = append(cands, cand{ap, r.RSSIdBm})
		}
	}
	if len(cands) == 0 {
		c.Met.observeDecision(roundTime, latency, false)
		c.Log.add(DecisionEntry{
			Client: rep.Client, Time: roundTime, Latency: latency,
			ServingAP: st.measureAP,
		})
		return nil, false
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].rssi != cands[j].rssi {
			return cands[i].rssi > cands[j].rssi
		}
		return cands[i].ap < cands[j].ap
	})
	st.lastRoam = roundTime
	c.Met.observeDecision(roundTime, latency, true)
	names := make([]string, len(cands))
	for i, cd := range cands {
		names[i] = cd.ap
	}
	c.Log.add(DecisionEntry{
		Client: rep.Client, Time: roundTime, Latency: latency,
		ServingAP: st.measureAP, Target: names[0], Roamed: true,
	})
	return &RoamDirective{
		Client:     rep.Client,
		ServingAP:  st.measureAP,
		Candidates: names,
		Time:       roundTime,
	}, true
}

// ClientState reports the coordinator's view of a client (for tests and
// monitoring).
func (c *Coordinator) ClientState(client string) (servingAP string, state core.State, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.clients[client]
	if st == nil {
		return "", core.StateUnknown, false
	}
	return st.servingAP, st.state, true
}

// A DecisionEntry records one completed measurement round.
type DecisionEntry struct {
	Client    string
	Time      float64
	Latency   float64
	ServingAP string
	// Target is the strongest admitted candidate ("" when the round
	// decided not to roam).
	Target string
	Roamed bool
}

// A DecisionLog accumulates completed rounds for run-to-run comparison.
// Every field of every entry derives from report (sim) time and
// order-independent aggregates, so two identically-seeded runs produce
// the same multiset of entries; WriteText renders them in a total order,
// making equal logs byte-identical regardless of goroutine scheduling.
// Safe for concurrent use; nil disables logging.
type DecisionLog struct {
	mu      sync.Mutex
	entries []DecisionEntry
}

func (l *DecisionLog) add(e DecisionEntry) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.entries = append(l.entries, e)
	l.mu.Unlock()
}

// WriteText renders the log sorted by client, time, serving AP and
// target, one round per line. Timestamps are printed in microseconds
// (the wire quantization grid), so equal logs render byte-identically.
func (l *DecisionLog) WriteText(w io.Writer) error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	entries := make([]DecisionEntry, len(l.entries))
	copy(entries, l.entries)
	l.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool {
		a, b := entries[i], entries[j]
		if a.Client != b.Client {
			return a.Client < b.Client
		}
		if a.Time != b.Time {
			return a.Time < b.Time
		}
		if a.ServingAP != b.ServingAP {
			return a.ServingAP < b.ServingAP
		}
		return a.Target < b.Target
	})
	for _, e := range entries {
		_, err := fmt.Fprintf(w, "client=%s t_us=%d lat_us=%d serving=%s target=%s roamed=%t\n",
			e.Client, QuantTime(e.Time), QuantTime(e.Latency), e.ServingAP, e.Target, e.Roamed)
		if err != nil {
			return err
		}
	}
	return nil
}
