package loadgen

import (
	"bytes"
	"sort"
	"strings"
	"testing"
	"time"

	"mobiwlan/internal/core"
	"mobiwlan/internal/ctlproto"
	"mobiwlan/internal/stats"
)

// hashFleetDefaults is the pinned fleet fingerprint of Defaults();
// regenerate with HashFleet(Defaults()) when the schedule format
// consciously changes, and update cmd/ctlload's smoke golden with it.
const hashFleetDefaults = 0x1ab634e8b0a6b90b

func TestGenerateAPDeterministic(t *testing.T) {
	cfg := Defaults()
	a := GenerateAP(cfg, 3)
	b := GenerateAP(cfg, 3)
	if len(a) != cfg.ClientsPerAP*cfg.ReportsPerClient {
		t.Fatalf("schedule has %d reports, want %d", len(a), cfg.ClientsPerAP*cfg.ReportsPerClient)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("report %d differs between identical generations: %+v vs %+v", i, a[i], b[i])
		}
	}
	// Sorted by (time, client); values on the wire quantization grid.
	for i := 1; i < len(a); i++ {
		if a[i].Rep.Time < a[i-1].Rep.Time {
			t.Fatalf("schedule not time-sorted at %d", i)
		}
		if a[i].Rep.Time == a[i-1].Rep.Time && a[i].Rep.Client < a[i-1].Rep.Client {
			t.Fatalf("equal-time reports not client-sorted at %d", i)
		}
	}
	triggers := 0
	for _, r := range a {
		if r.Rep.Time != ctlproto.UnquantTime(ctlproto.QuantTime(r.Rep.Time)) {
			t.Fatalf("time %v off the quantization grid", r.Rep.Time)
		}
		if r.Rep.RSSIdBm != ctlproto.UnquantRSSI(ctlproto.QuantRSSI(r.Rep.RSSIdBm)) {
			t.Fatalf("rssi %v off the quantization grid", r.Rep.RSSIdBm)
		}
		if r.Trigger {
			triggers++
			if r.Rep.State != core.StateMacroAway {
				t.Fatalf("trigger with state %v", r.Rep.State)
			}
		}
	}
	want := cfg.ClientsPerAP * ((cfg.ReportsPerClient - 1) / cfg.RoamEvery)
	if triggers != want {
		t.Fatalf("%d triggers, want %d", triggers, want)
	}
	// Different APs and different seeds give different schedules.
	if HashAP(cfg, 0) == HashAP(cfg, 1) {
		t.Fatal("AP 0 and AP 1 hashed identically")
	}
	cfg2 := cfg
	cfg2.Seed++
	if HashAP(cfg, 0) == HashAP(cfg2, 0) {
		t.Fatal("different seeds hashed identically")
	}
}

// TestHashFleetPinned pins the fleet fingerprint of the default config.
// ctlload prints this value; CI's smoke step compares it against a
// golden file, so a change here means the wire schedule changed and the
// golden (plus this constant) must be consciously regenerated.
func TestHashFleetPinned(t *testing.T) {
	got := HashFleet(Defaults())
	if got != hashFleetDefaults {
		t.Fatalf("HashFleet(Defaults()) = %#x, want %#x — the deterministic schedule changed", got, hashFleetDefaults)
	}
	if HashFleet(Defaults()) != got {
		t.Fatal("HashFleet not stable across calls")
	}
}

func TestValidateRejections(t *testing.T) {
	base := Defaults()
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"zero APs", func(c *Config) { c.APs = 0 }},
		{"negative clients", func(c *Config) { c.ClientsPerAP = -1 }},
		{"zero reports", func(c *Config) { c.ReportsPerClient = 0 }},
		{"zero batch", func(c *Config) { c.BatchSize = 0 }},
		{"oversized batch", func(c *Config) { c.BatchSize = ctlproto.MaxBatchEntries + 1 }},
		{"negative roam-every", func(c *Config) { c.RoamEvery = -1 }},
		{"trigger spacing vs throttle", func(c *Config) { c.MinInterval = 10 }},
		{"trigger spacing vs burst", func(c *Config) { c.RoamEvery = 4 }},
	}
	for _, tc := range cases {
		cfg := base
		tc.mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, cfg)
		}
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("Defaults invalid: %v", err)
	}
}

// stableSortSchedule is the reference GenerateAP must match: every
// client's stream, in client order, then sort.SliceStable by (time,
// client).
func stableSortSchedule(cfg Config, i int) []Report {
	apRNG := stats.NewRNG(cfg.Seed).Split(uint64(i))
	var out []Report
	for j := 0; j < cfg.ClientsPerAP; j++ {
		crng := apRNG.Split(uint64(j))
		client := ClientID(i, j)
		phase := crng.Float64()
		base := -62 + 6*crng.Float64()
		for k := 0; k < cfg.ReportsPerClient; k++ {
			t := cfg.Telemetry.ReportTime(phase, k)
			trigger := cfg.RoamEvery > 0 && k > 0 && k%cfg.RoamEvery == 0
			state, rssi := core.StateMacroAway, float64(triggerRSSI)
			if !trigger {
				state = []core.State{core.StateStatic, core.StateMicro, core.StateMacroToward}[crng.Intn(3)]
				rssi = base + crng.Range(-2, 2)
			}
			out = append(out, Report{
				Rep: ctlproto.MobilityReport{
					APID: APID(i), Client: client, State: state,
					Time:    ctlproto.UnquantTime(ctlproto.QuantTime(t)),
					RSSIdBm: ctlproto.UnquantRSSI(ctlproto.QuantRSSI(rssi)),
				},
				Trigger: trigger,
			})
		}
	}
	sort.SliceStable(out, func(a, b int) bool {
		if out[a].Rep.Time != out[b].Rep.Time {
			return out[a].Rep.Time < out[b].Rep.Time
		}
		return out[a].Rep.Client < out[b].Rep.Client
	})
	return out
}

// TestGenerateAPMatchesStableSort pins the merged schedule to the
// stable sort report for report, on shapes that stress the tie-breaks:
// equal µs times within one client (a tiny BurstGap), equal times
// across clients (a 1 µs period), more than 1000 clients per AP (where
// ClientID's %03d stops matching numeric order), Burst 1, and a period
// whose times overflow the µs grid's int64 range.
func TestGenerateAPMatchesStableSort(t *testing.T) {
	cases := []struct {
		name string
		mod  func(*Config)
	}{
		{"defaults", func(*Config) {}},
		{"tiny burst gap", func(c *Config) { c.Telemetry.BurstGap = 1e-9 }},
		{"1 µs period", func(c *Config) { c.Telemetry.Period = 1e-6 }},
		{"1200 clients", func(c *Config) { c.ClientsPerAP, c.ReportsPerClient = 1200, 5 }},
		{"burst 1", func(c *Config) { c.Telemetry.Burst = 1 }},
		{"no triggers", func(c *Config) { c.RoamEvery = 0 }},
		{"period past the grid", func(c *Config) { c.Telemetry.Period = 1e12 }},
	}
	for _, tc := range cases {
		cfg := Defaults()
		cfg.ClientsPerAP = 40
		tc.mod(&cfg)
		for _, ap := range []int{0, 3} {
			got, want := GenerateAP(cfg, ap), stableSortSchedule(cfg, ap)
			if len(got) != len(want) {
				t.Fatalf("%s, AP %d: %d reports, want %d", tc.name, ap, len(got), len(want))
			}
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("%s, AP %d: report %d is %+v, want %+v", tc.name, ap, k, got[k], want[k])
				}
			}
		}
	}
}

func TestWriteScheduleDeterministic(t *testing.T) {
	cfg := Defaults()
	cfg.APs = 2
	var a, b bytes.Buffer
	if err := WriteSchedule(&a, cfg); err != nil {
		t.Fatal(err)
	}
	if err := WriteSchedule(&b, cfg); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("schedule dumps differ across identical calls")
	}
	lines := strings.Count(a.String(), "\n")
	if want := cfg.APs * cfg.ClientsPerAP * cfg.ReportsPerClient; lines != want {
		t.Fatalf("dump has %d lines, want %d", lines, want)
	}
	if !strings.HasPrefix(a.String(), "ap=ap00000 ") {
		t.Fatalf("unexpected first line: %q", strings.SplitN(a.String(), "\n", 2)[0])
	}
}

func TestMeasureAnswerProperties(t *testing.T) {
	req := ctlproto.MeasureRequest{Client: "c00001-000", Time: 12.5}
	a1 := MeasureAnswer("ap00007", req)
	a2 := MeasureAnswer("ap00007", req)
	if a1 != a2 {
		t.Fatal("MeasureAnswer not deterministic")
	}
	if a1.RSSIdBm < -65 || a1.RSSIdBm >= -55 {
		t.Fatalf("answer RSSI %v outside [-65, -55)", a1.RSSIdBm)
	}
	if !a1.Approaching {
		t.Fatal("answers must always approach (rounds must always roam)")
	}
	if a1.Time <= req.Time || a1.Time > req.Time+maxAnswerDelay {
		t.Fatalf("answer time %v not within (%v, %v]", a1.Time, req.Time, req.Time+maxAnswerDelay)
	}
	if a1.Time != ctlproto.UnquantTime(ctlproto.QuantTime(a1.Time)) {
		t.Fatalf("answer time %v off the quantization grid", a1.Time)
	}
	// Different APs answer differently (so the controller has a real
	// choice to make).
	if b := MeasureAnswer("ap00008", req); b.RSSIdBm == a1.RSSIdBm {
		t.Skipf("hash collision between adjacent APs (legal, just unlucky)")
	}
}

// runSmallFleet drives a complete engine lifecycle against a real
// sharded server and returns the final stats.
func runSmallFleet(t *testing.T, cfg Config, jobs int) Stats {
	t.Helper()
	coord := ctlproto.NewCoordinator()
	coord.MinInterval = cfg.MinInterval
	coord.MaxFanout = 2
	srv, err := ctlproto.NewServerConfig("127.0.0.1:0", coord, ctlproto.Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	eng, err := New(cfg, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Connect(); err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	deadline := time.Now().Add(10 * time.Second)
	for len(srv.APs()) < cfg.APs {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d APs registered", len(srv.APs()), cfg.APs)
		}
		time.Sleep(2 * time.Millisecond)
	}
	eng.Stream(jobs, Hooks{
		Timeout: func(d float64) <-chan struct{} {
			ch := make(chan struct{})
			time.AfterFunc(time.Duration(d*float64(time.Second)), func() { close(ch) })
			return ch
		},
		TimeoutS: 30,
	})
	return eng.Stats()
}

func TestEngineEndToEnd(t *testing.T) {
	cfg := Defaults()
	cfg.APs = 4
	cfg.ClientsPerAP = 1
	cfg.ReportsPerClient = 13 // one trigger per client at k=12
	for _, tc := range []struct {
		name  string
		batch int
	}{
		{"8-entry batches", 8},
		{"one-entry batches", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := cfg
			cfg.BatchSize = tc.batch
			stats := runSmallFleet(t, cfg, 2)
			wantReports := uint64(cfg.APs * cfg.ClientsPerAP * cfg.ReportsPerClient)
			if stats.ReportsSent != wantReports {
				t.Fatalf("sent %d reports, want %d", stats.ReportsSent, wantReports)
			}
			wantTriggers := uint64(cfg.APs * cfg.ClientsPerAP)
			if stats.Triggers != wantTriggers || stats.DirectivesReceived != wantTriggers {
				t.Fatalf("triggers %d, directives %d, want %d each",
					stats.Triggers, stats.DirectivesReceived, wantTriggers)
			}
			if stats.RequestsAnswered != wantTriggers*2 {
				t.Fatalf("answered %d requests, want %d (fanout 2)", stats.RequestsAnswered, wantTriggers*2)
			}
			if stats.Timeouts != 0 || stats.Errors != 0 {
				t.Fatalf("degraded run: %+v", stats)
			}
			if tc.batch > 1 && stats.FramesSent >= stats.ReportsSent {
				t.Fatalf("batching off: %d frames for %d reports", stats.FramesSent, stats.ReportsSent)
			}
			if tc.batch == 1 && stats.FramesSent != stats.ReportsSent {
				t.Fatalf("one-entry batches framed %d for %d reports", stats.FramesSent, stats.ReportsSent)
			}
		})
	}
}

// TestEngineJobsIndependence reruns one workload at several worker
// counts; the engine's externally visible counters must not change.
func TestEngineJobsIndependence(t *testing.T) {
	cfg := Defaults()
	cfg.APs = 6
	cfg.ClientsPerAP = 1
	cfg.ReportsPerClient = 13
	var base Stats
	for i, jobs := range []int{1, 3, 16} {
		stats := runSmallFleet(t, cfg, jobs)
		if i == 0 {
			base = stats
			continue
		}
		if stats != base {
			t.Fatalf("jobs=%d diverged:\n  base: %+v\n  got:  %+v", jobs, base, stats)
		}
	}
}
