// Package loadgen is the deterministic control-plane load generator
// behind cmd/ctlload and the ctlproto soak tests: it replays a
// city-scale fleet of simulated APs against a ctlproto controller.
//
// Everything observable is a pure function of the Config. Each AP's
// report schedule derives from seed-split RNG streams (one split per
// AP, one per client), measurement answers are stateless hashes of the
// (AP, client) pair, and macro-away triggers are spaced so every
// measurement round completes before the same client triggers again.
// Consequently the schedule, the stream hashes, and the controller's
// decision log are byte-identical at any worker count — the property
// the soak suite pins.
//
// The package deliberately never touches the wall clock (mobilint's
// time-now check bans it here): pacing and timeouts are injected by
// the caller through Hooks.
package loadgen

import (
	"fmt"
	"io"
	"slices"

	"mobiwlan/internal/core"
	"mobiwlan/internal/ctlproto"
	"mobiwlan/internal/stats"
	"mobiwlan/internal/transport"
)

// Config describes a fleet workload. The zero value is not runnable;
// see Defaults and Validate.
type Config struct {
	// Seed is the root of every RNG split.
	Seed uint64
	// APs is the number of simulated APs (sessions).
	APs int
	// ClientsPerAP is the number of clients each AP reports on.
	ClientsPerAP int
	// ReportsPerClient is each client's schedule length.
	ReportsPerClient int
	// Telemetry shapes each client's report times (bursty arrivals).
	Telemetry transport.Telemetry
	// RoamEvery makes every RoamEvery-th report of a client macro-away
	// (a measurement-round trigger); 0 disables triggers.
	RoamEvery int
	// MinInterval mirrors the controller's roam throttle; Validate
	// rejects schedules whose triggers could collide with it.
	MinInterval float64
	// BatchSize is the most entries a report-batch frame carries, in
	// [1, ctlproto.MaxBatchEntries]; 1 sends each report in a frame of
	// its own.
	BatchSize int
	// SnapshotEvery is the encoder's per-client snapshot interval
	// (0 = ctlproto.DefaultSnapshotEvery).
	SnapshotEvery int
}

// Defaults returns a small, self-consistent workload: bursty telemetry
// (4 reports per 1 s burst window), a trigger every 12th report, and
// batches of 64 entries.
func Defaults() Config {
	return Config{
		Seed:             1,
		APs:              8,
		ClientsPerAP:     4,
		ReportsPerClient: 36,
		Telemetry:        transport.Telemetry{Period: 1, Burst: 4},
		RoamEvery:        12,
		MinInterval:      1,
		BatchSize:        64,
	}
}

// triggerRSSI is the serving RSSI carried by macro-away reports; answer
// RSSIs (see MeasureAnswer) sit well inside the controller's 3 dB
// admission band above it, so every completed round roams — which lets
// a serving AP wait for the directive that closes its round.
const triggerRSSI = -70

// maxAnswerDelay bounds MeasureAnswer's sim-time response delay.
const maxAnswerDelay = 0.01

// Validate checks that the workload is runnable and round-safe:
// consecutive triggers of one client must be farther apart in sim time
// than MinInterval plus the worst answer delay, so every trigger opens
// a round and the run's decision log is schedule-determined.
func (cfg Config) Validate() error {
	if cfg.APs <= 0 || cfg.ClientsPerAP <= 0 || cfg.ReportsPerClient <= 0 {
		return fmt.Errorf("loadgen: APs, ClientsPerAP and ReportsPerClient must be positive (got %d, %d, %d)",
			cfg.APs, cfg.ClientsPerAP, cfg.ReportsPerClient)
	}
	if cfg.BatchSize < 1 || cfg.BatchSize > ctlproto.MaxBatchEntries {
		return fmt.Errorf("loadgen: BatchSize %d outside [1, %d]", cfg.BatchSize, ctlproto.MaxBatchEntries)
	}
	if cfg.RoamEvery < 0 {
		return fmt.Errorf("loadgen: RoamEvery must be >= 0, got %d", cfg.RoamEvery)
	}
	if cfg.RoamEvery > 0 {
		period := cfg.Telemetry.Period
		if period <= 0 {
			period = 1
		}
		burst := cfg.Telemetry.Burst
		if burst <= 0 {
			burst = 1
		}
		// Worst-case spacing between consecutive triggers: whole bursts
		// plus the in-burst offset can shrink it by at most one period.
		minSpacing := (float64(cfg.RoamEvery/burst) - 1) * period
		if need := cfg.MinInterval + 2*maxAnswerDelay; minSpacing <= need {
			return fmt.Errorf("loadgen: trigger spacing %.3fs (RoamEvery=%d, burst=%d, period=%.3fs) must exceed MinInterval+slack %.3fs",
				minSpacing, cfg.RoamEvery, burst, period, need)
		}
	}
	return nil
}

// APID names AP i; zero-padded so lexicographic order is numeric order
// (the controller's fan-out walks the sorted AP list).
func APID(i int) string { return fmt.Sprintf("ap%05d", i) }

// ClientID names client j of AP i. Clients never move between APs, so
// the AP index keeps IDs fleet-unique.
func ClientID(i, j int) string { return fmt.Sprintf("c%05d-%03d", i, j) }

// Report is one scheduled mobility report; Trigger marks the
// macro-away reports that open measurement rounds.
type Report struct {
	Rep     ctlproto.MobilityReport
	Trigger bool
}

// GenerateAP builds AP i's full schedule, sorted by (time, client),
// one client's equal-time reports in report order: the order a stable
// sort of the clients' concatenated streams gives. A pure function of
// (cfg, i): workers can generate shards of the fleet independently and
// always agree.
//
// Each client draws from its own RNG split, so its stream can be
// generated lazily; GenerateAP merges the streams through a heap keyed
// like the sort. Report times are nondecreasing within a stream
// (Telemetry.ReportTime, then the µs grid), which makes the merge the
// sorted order. A stream that decreases (times past the grid's int64
// range) leaves the merge unsorted, and the stable sort then restores
// the order exactly: the merge keeps each client's reports in stream
// order, and only one client's reports can tie.
func GenerateAP(cfg Config, i int) []Report {
	apRNG := stats.NewRNG(cfg.Seed).Split(uint64(i))
	apID := APID(i)
	streams := make([]clientStream, cfg.ClientsPerAP)
	heap := make([]*clientStream, 0, len(streams))
	for j := range streams {
		st := &streams[j]
		st.rng = *apRNG.Split(uint64(j))
		st.apID = apID
		st.client = ClientID(i, j)
		st.phase = st.rng.Float64()
		st.base = -62 + 6*st.rng.Float64() // resting RSSI in [-62, -56) dBm
		if st.advance(&cfg) {
			heap = append(heap, st)
		}
	}
	for k := len(heap)/2 - 1; k >= 0; k-- {
		siftDown(heap, k)
	}
	out := make([]Report, 0, cfg.ClientsPerAP*cfg.ReportsPerClient)
	for len(heap) > 0 {
		st := heap[0]
		out = append(out, st.next)
		if !st.advance(&cfg) {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
		}
		siftDown(heap, 0)
	}
	byTimeClient := func(a, b Report) int {
		if before(&a, &b) {
			return -1
		}
		if before(&b, &a) {
			return 1
		}
		return 0
	}
	if !slices.IsSortedFunc(out, byTimeClient) {
		slices.SortStableFunc(out, byTimeClient)
	}
	return out
}

// clientStream generates one client's reports in order.
type clientStream struct {
	rng         stats.RNG
	apID        string
	client      string
	phase, base float64
	// k is the index of the next report to generate; next holds the
	// report advance generated last.
	k    int
	next Report
}

// advance generates the stream's next report into next, or reports
// false at the end of the stream.
func (st *clientStream) advance(cfg *Config) bool {
	k := st.k
	if k >= cfg.ReportsPerClient {
		return false
	}
	st.k++
	t := cfg.Telemetry.ReportTime(st.phase, k)
	trigger := cfg.RoamEvery > 0 && k > 0 && k%cfg.RoamEvery == 0
	var state core.State
	var rssi float64
	if trigger {
		state = core.StateMacroAway
		rssi = triggerRSSI
	} else {
		switch st.rng.Intn(3) {
		case 0:
			state = core.StateStatic
		case 1:
			state = core.StateMicro
		default:
			state = core.StateMacroToward
		}
		rssi = st.base + st.rng.Range(-2, 2)
	}
	st.next = Report{
		Rep: ctlproto.MobilityReport{
			APID:   st.apID,
			Client: st.client,
			State:  state,
			// Snap to the wire quantization grid, so the delta
			// encoding carries the values exactly.
			Time:    ctlproto.UnquantTime(ctlproto.QuantTime(t)),
			RSSIdBm: ctlproto.UnquantRSSI(ctlproto.QuantRSSI(rssi)),
		},
		Trigger: trigger,
	}
	return true
}

// before orders reports by (time, client), the schedule's sort key.
func before(a, b *Report) bool {
	if a.Rep.Time != b.Rep.Time {
		return a.Rep.Time < b.Rep.Time
	}
	return a.Rep.Client < b.Rep.Client
}

// siftDown restores the min-heap order below h[k], keyed on each
// stream's next report.
func siftDown(h []*clientStream, k int) {
	for {
		c := 2*k + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && before(&h[c+1].next, &h[c].next) {
			c++
		}
		if !before(&h[c].next, &h[k].next) {
			return
		}
		h[k], h[c] = h[c], h[k]
		k = c
	}
}

// hashString folds s into an FNV-1a 64 hash state.
func hashString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func hashInt(h uint64, v int64) uint64 {
	for s := 0; s < 64; s += 8 {
		h ^= uint64(v>>s) & 0xff
		h *= 1099511628211
	}
	return h
}

// HashAP fingerprints AP i's schedule (quantized fields only, so the
// hash is identical however the reports were encoded on the wire).
func HashAP(cfg Config, i int) uint64 {
	h := uint64(14695981039346656037)
	for _, r := range GenerateAP(cfg, i) {
		h = hashString(h, r.Rep.Client)
		h = hashInt(h, int64(r.Rep.State))
		h = hashInt(h, ctlproto.QuantTime(r.Rep.Time))
		h = hashInt(h, ctlproto.QuantRSSI(r.Rep.RSSIdBm))
	}
	return h
}

// HashFleet combines the per-AP hashes in AP order — the value ctlload
// prints, byte-identical at any -jobs.
func HashFleet(cfg Config) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < cfg.APs; i++ {
		h = hashInt(h, int64(HashAP(cfg, i)))
	}
	return h
}

// WriteSchedule dumps the whole fleet's schedule as text, APs in
// order, one report per line on the wire quantization grid.
func WriteSchedule(w io.Writer, cfg Config) error {
	for i := 0; i < cfg.APs; i++ {
		for _, r := range GenerateAP(cfg, i) {
			_, err := fmt.Fprintf(w, "ap=%s client=%s t_us=%d s=%d r_cdb=%d trig=%t\n",
				r.Rep.APID, r.Rep.Client, ctlproto.QuantTime(r.Rep.Time),
				int(r.Rep.State), ctlproto.QuantRSSI(r.Rep.RSSIdBm), r.Trigger)
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// MeasureAnswer is a neighbor AP's deterministic reply to a measure
// request: a stateless hash of (apID, client) chooses RSSI in
// [-65, -55) centi-dB steps and a per-AP answer delay in (0, 10] ms on
// the µs grid; Approaching is always true. Every answer therefore sits
// inside the controller's admission band above triggerRSSI, every
// completed round roams, and the round's decision depends only on
// which APs were asked — not on arrival order.
func MeasureAnswer(apID string, req ctlproto.MeasureRequest) ctlproto.MeasureReport {
	h := hashString(hashString(uint64(14695981039346656037), apID), req.Client)
	rssi := -65 + float64(h%1000)/100
	dh := hashString(uint64(14695981039346656037), apID)
	delay := float64(1+dh%100) * 1e-4
	return ctlproto.MeasureReport{
		APID:        apID,
		Client:      req.Client,
		RSSIdBm:     rssi,
		Approaching: true,
		Time:        ctlproto.UnquantTime(ctlproto.QuantTime(req.Time + delay)),
	}
}
