package ctlproto

import (
	"testing"
	"time"

	"mobiwlan/internal/core"
	"mobiwlan/internal/obs"
)

// TestMetricsEndToEnd drives the instrumented control plane through a
// full roam round over real TCP and checks the counters: RPC rx/tx per
// message type, session registration, measurement fanout, and the
// decision latency measured in report sim-time.
func TestMetricsEndToEnd(t *testing.T) {
	reg := obs.NewRegistry()
	met := NewMetrics(reg, obs.NewSyncTracer(64))

	coord := NewCoordinator()
	coord.Met = met
	srv, err := NewServerConfig("127.0.0.1:0", coord, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.SetMetrics(met)

	ap1, err := Dial(srv.Addr(), "ap1")
	if err != nil {
		t.Fatal(err)
	}
	defer ap1.Close()
	ap2, err := Dial(srv.Addr(), "ap2")
	if err != nil {
		t.Fatal(err)
	}
	defer ap2.Close()
	deadline := time.Now().Add(5 * time.Second)
	for len(srv.APs()) < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("APs never registered: %v", srv.APs())
		}
		time.Sleep(5 * time.Millisecond)
	}

	if err := sendReport(ap1, MobilityReport{
		Client: "aa:bb:cc:dd:ee:ff", State: core.StateMacroAway, Time: 3, RSSIdBm: -72,
	}); err != nil {
		t.Fatal(err)
	}
	env := waitEnv(t, ap2.Inbound, TypeMeasureRequest)
	req, err := DecodePayload[MeasureRequest](env)
	if err != nil {
		t.Fatal(err)
	}
	if err := ap2.ReportMeasurement(MeasureReport{
		Client: req.Client, RSSIdBm: -65, Approaching: true, Time: 3.5,
	}); err != nil {
		t.Fatal(err)
	}
	waitEnv(t, ap1.Inbound, TypeRoamDirective)

	check := func(name string, want uint64) {
		t.Helper()
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	check("ctlproto.conns.opened", 2)
	check("ctlproto.sessions", 2)
	check("ctlproto.rx.hello", 2)
	check("ctlproto.rx.report-batch", 1)
	check("ctlproto.rx.measure-report", 1)
	check("ctlproto.tx.measure-request", 1)
	check("ctlproto.tx.roam-directive", 1)
	check("ctlproto.roam.directives", 1)

	lat := reg.Histogram("ctlproto.decision-latency_s", 1)
	if lat.Count() != 1 {
		t.Fatalf("decision latency count = %d, want 1", lat.Count())
	}
	// Latency is sim-time: measure report at t=3.5 minus the macro-away
	// report at t=3.
	if got := lat.Sum(); got != 0.5 {
		t.Errorf("decision latency sum = %v, want 0.5", got)
	}
	fan := reg.Histogram("ctlproto.measure.fanout", 1)
	if fan.Count() != 1 || fan.Sum() != 1 {
		t.Errorf("fanout count=%d sum=%v, want 1 and 1", fan.Count(), fan.Sum())
	}

	evs := met.tr.Events()
	var haveSession, haveStart, haveDirective bool
	for _, e := range evs {
		switch e.Name {
		case "session":
			haveSession = true
		case "measure-start":
			haveStart = true
		case "roam-directive":
			haveDirective = true
		}
	}
	if !haveSession || !haveStart || !haveDirective {
		t.Errorf("trace missing events: session=%v measure-start=%v roam-directive=%v (%d events)",
			haveSession, haveStart, haveDirective, len(evs))
	}

	// Close both APs and wait for the server to notice, so the conn
	// lifecycle balances.
	ap1.Close()
	ap2.Close()
	deadline = time.Now().Add(5 * time.Second)
	for reg.Counter("ctlproto.conns.closed").Value() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("conns.closed = %d, want 2", reg.Counter("ctlproto.conns.closed").Value())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
