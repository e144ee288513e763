package ctlproto

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"mobiwlan/internal/core"
	"mobiwlan/internal/obs"
)

func TestMessageRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	rep := MeasureReport{APID: "ap1", Client: "aa:bb", RSSIdBm: -70, Approaching: true, Time: 12.5}
	if err := WriteMsg(&buf, TypeMeasureReport, rep); err != nil {
		t.Fatal(err)
	}
	env, err := ReadMsg(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if env.Type != TypeMeasureReport {
		t.Fatalf("type = %q", env.Type)
	}
	got, err := DecodePayload[MeasureReport](env)
	if err != nil {
		t.Fatal(err)
	}
	if got != rep {
		t.Fatalf("round trip: %+v != %+v", got, rep)
	}
}

func TestReadMsgRejectsGarbage(t *testing.T) {
	// Zero length.
	if _, err := ReadMsg(bytes.NewReader([]byte{0, 0, 0, 0})); err == nil {
		t.Fatal("zero-length message should fail")
	}
	// Absurd length.
	if _, err := ReadMsg(bytes.NewReader([]byte{0xFF, 0xFF, 0xFF, 0xFF})); err == nil {
		t.Fatal("oversized message should fail")
	}
	// Truncated body.
	if _, err := ReadMsg(bytes.NewReader([]byte{0, 0, 0, 10, 'x'})); err == nil {
		t.Fatal("truncated body should fail")
	}
	// Invalid JSON.
	if _, err := ReadMsg(bytes.NewReader([]byte{0, 0, 0, 3, 'x', 'y', 'z'})); err == nil {
		t.Fatal("bad JSON should fail")
	}
}

func TestCoordinatorMeasureFlow(t *testing.T) {
	c := NewCoordinator()
	all := []string{"ap1", "ap2", "ap3"}
	// Static client: nothing happens.
	if targets := c.OnMobilityReportInto(&MobilityReport{
		APID: "ap1", Client: "c1", State: core.StateStatic, Time: 1, RSSIdBm: -60,
	}, all, nil); len(targets) != 0 {
		t.Fatalf("static client triggered measurement: %v", targets)
	}
	// Macro-away: measure on the two neighbors.
	targets := c.OnMobilityReportInto(&MobilityReport{
		APID: "ap1", Client: "c1", State: core.StateMacroAway, Time: 2, RSSIdBm: -70,
	}, all, nil)
	if len(targets) != 2 || targets[0] == "ap1" || targets[1] == "ap1" {
		t.Fatalf("targets = %v", targets)
	}
	// First report: pending.
	if d, ok := c.OnMeasureReport(MeasureReport{
		APID: "ap2", Client: "c1", RSSIdBm: -68, Approaching: true, Time: 2.5,
	}); ok || d != nil {
		t.Fatal("decision before all reports arrived")
	}
	// Second report completes the round; ap2 is approaching and stronger.
	d, ok := c.OnMeasureReport(MeasureReport{
		APID: "ap3", Client: "c1", RSSIdBm: -60, Approaching: false, Time: 2.6,
	})
	if !ok || d == nil {
		t.Fatal("expected a roam directive")
	}
	if d.ServingAP != "ap1" || d.Client != "c1" {
		t.Fatalf("directive = %+v", d)
	}
	if len(d.Candidates) != 1 || d.Candidates[0] != "ap2" {
		t.Fatalf("candidates = %v (ap3 is not approaching)", d.Candidates)
	}
}

func TestCoordinatorNoCandidates(t *testing.T) {
	c := NewCoordinator()
	all := []string{"ap1", "ap2"}
	c.OnMobilityReportInto(&MobilityReport{
		APID: "ap1", Client: "c1", State: core.StateMacroAway, Time: 1, RSSIdBm: -60,
	}, all, nil)
	// Neighbor much weaker: no roam.
	d, ok := c.OnMeasureReport(MeasureReport{
		APID: "ap2", Client: "c1", RSSIdBm: -80, Approaching: true, Time: 1.5,
	})
	if ok || d != nil {
		t.Fatal("weak candidate should not trigger a roam")
	}
}

func TestCoordinatorThrottle(t *testing.T) {
	c := NewCoordinator()
	all := []string{"ap1", "ap2"}
	roam := func(tm float64) bool {
		targets := c.OnMobilityReportInto(&MobilityReport{
			APID: "ap1", Client: "c1", State: core.StateMacroAway, Time: tm, RSSIdBm: -70,
		}, all, nil)
		if len(targets) == 0 {
			return false
		}
		_, ok := c.OnMeasureReport(MeasureReport{
			APID: "ap2", Client: "c1", RSSIdBm: -60, Approaching: true, Time: tm,
		})
		return ok
	}
	if !roam(10) {
		t.Fatal("first roam should fire")
	}
	if roam(11) {
		t.Fatal("roam within MinInterval should be throttled")
	}
	if !roam(20) {
		t.Fatal("roam after the interval should fire again")
	}
}

func TestCoordinatorClientState(t *testing.T) {
	c := NewCoordinator()
	if _, _, ok := c.ClientState("nobody"); ok {
		t.Fatal("unknown client should report !ok")
	}
	c.OnMobilityReportInto(&MobilityReport{APID: "ap9", Client: "c2", State: core.StateMicro, Time: 1}, nil, nil)
	ap, st, ok := c.ClientState("c2")
	if !ok || ap != "ap9" || st != core.StateMicro {
		t.Fatalf("ClientState = %v %v %v", ap, st, ok)
	}
}

// sendReport sends rep from ap as a one-entry batch. Each call encodes
// with a fresh BatchEncoder, so the entry is a snapshot and needs no
// delta history.
func sendReport(ap *APConn, rep MobilityReport) error {
	enc := BatchEncoder{APID: ap.ID}
	if err := enc.Add(&rep); err != nil {
		return err
	}
	var b ReportBatch
	enc.Flush(&b)
	return ap.ReportBatch(&b)
}

// waitEnv receives one inbound envelope with a timeout.
func waitEnv(t *testing.T, ch chan Envelope, wantType string) Envelope {
	t.Helper()
	select {
	case env, ok := <-ch:
		if !ok {
			t.Fatalf("connection closed while waiting for %s", wantType)
		}
		if env.Type != wantType {
			t.Fatalf("got %q, want %q", env.Type, wantType)
		}
		return env
	case <-time.After(5 * time.Second):
		t.Fatalf("timeout waiting for %s", wantType)
	}
	return Envelope{}
}

func TestEndToEndOverTCP(t *testing.T) {
	srv, err := NewServerConfig("127.0.0.1:0", NewCoordinator(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Logf = t.Logf

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

	// Wait until both hellos registered.
	deadline := time.Now().Add(5 * time.Second)
	for len(srv.APs()) < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("APs never registered: %v", srv.APs())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// ap1 reports its client walking away.
	if err := sendReport(ap1, MobilityReport{
		Client: "aa:bb:cc:dd:ee:ff", State: core.StateMacroAway, Time: 3, RSSIdBm: -72,
	}); err != nil {
		t.Fatal(err)
	}

	// ap2 receives a measurement request...
	env := waitEnv(t, ap2.Inbound, TypeMeasureRequest)
	req, err := DecodePayload[MeasureRequest](env)
	if err != nil || req.Client != "aa:bb:cc:dd:ee:ff" {
		t.Fatalf("measure request = %+v, err %v", req, err)
	}
	// ...and answers: strong and approaching.
	if err := ap2.ReportMeasurement(MeasureReport{
		Client: req.Client, RSSIdBm: -65, Approaching: true, Time: 3.2,
	}); err != nil {
		t.Fatal(err)
	}

	// ap1 (the serving AP) receives the roam directive.
	env = waitEnv(t, ap1.Inbound, TypeRoamDirective)
	d, err := DecodePayload[RoamDirective](env)
	if err != nil {
		t.Fatal(err)
	}
	if d.ServingAP != "ap1" || len(d.Candidates) != 1 || d.Candidates[0] != "ap2" {
		t.Fatalf("directive = %+v", d)
	}
}

func TestServerRejectsNoHello(t *testing.T) {
	for _, tc := range []struct {
		name    string
		typ     string
		payload any
		log     string
	}{
		{"report first", TypeReportBatch, &ReportBatch{APID: "ap1", Entries: []BatchEntry{{Client: "c1", Snap: true, S: 1, T: 1}}},
			`connection without hello: first message is "report-batch"`},
		{"empty hello id", TypeHello, Hello{}, "bad hello: ap_id of 0 bytes"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, err := NewServerConfig("127.0.0.1:0", NewCoordinator(), Config{})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			var mu sync.Mutex
			var logs []string
			srv.Logf = func(format string, args ...any) {
				mu.Lock()
				logs = append(logs, fmt.Sprintf(format, args...))
				mu.Unlock()
			}

			conn, err := net.Dial("tcp", srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if err := WriteMsg(conn, tc.typ, tc.payload); err != nil {
				t.Fatal(err)
			}
			// The server hangs up without answering.
			if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
				t.Fatal(err)
			}
			if n, err := conn.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
				t.Fatalf("read after the first frame = %d bytes, %v; want EOF", n, err)
			}
			if got := srv.APs(); len(got) != 0 {
				t.Fatalf("AP registered: %v", got)
			}
			mu.Lock()
			defer mu.Unlock()
			if !strings.Contains(strings.Join(logs, "\n"), tc.log) {
				t.Fatalf("logs %q do not contain %q", logs, tc.log)
			}
		})
	}
}

// TestServerRejectsMobilityReportFrame sends the per-report frame an AP
// of the old protocol writes after its hello: the server logs it as an
// unexpected type, routes and counts nothing, and keeps the session,
// which then serves a report batch.
func TestServerRejectsMobilityReportFrame(t *testing.T) {
	reg := obs.NewRegistry()
	srv, err := NewServerConfig("127.0.0.1:0", NewCoordinator(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.SetMetrics(NewMetrics(reg, nil))
	var mu sync.Mutex
	var logs []string
	srv.Logf = func(format string, args ...any) {
		mu.Lock()
		logs = append(logs, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
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
	waitFor(t, "sessions registered", func() bool { return len(srv.APs()) == 2 })

	// A macro-away report that would open a round if it were routed.
	stale := json.RawMessage(`{"ap_id":"ap1","client":"c1","state":4,"time":3,"rssi_dbm":-72}`)
	if err := WriteMsg(ap1.conn, "mobility-report", stale); err != nil {
		t.Fatal(err)
	}
	if err := sendReport(ap1, MobilityReport{Client: "c2", State: core.StateMacroAway, Time: 3, RSSIdBm: -72}); err != nil {
		t.Fatal(err)
	}
	// The session reads frames in order, so the batch's round follows
	// the stale frame's handling.
	req, err := DecodePayload[MeasureRequest](waitEnv(t, ap2.Inbound, TypeMeasureRequest))
	if err != nil || req.Client != "c2" {
		t.Fatalf("measure request = %+v, %v; want one for c2", req, err)
	}
	if received, _, _, _, ok := srv.SessionStats("ap1"); !ok || received != 1 {
		t.Fatalf("ap1 received = %d (session up: %v), want 1: the batch entry only", received, ok)
	}
	if got := reg.Counter("ctlproto.rx.report-batch").Value(); got != 1 {
		t.Fatalf("rx.report-batch = %d, want 1", got)
	}
	mu.Lock()
	defer mu.Unlock()
	if want := `ap1: unexpected message type "mobility-report"`; !strings.Contains(strings.Join(logs, "\n"), want) {
		t.Fatalf("logs %q do not contain %q", logs, want)
	}
}

func TestServerCloseUnblocksClients(t *testing.T) {
	srv, err := NewServerConfig("127.0.0.1:0", NewCoordinator(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	ap, err := Dial(srv.Addr(), "apX")
	if err != nil {
		t.Fatal(err)
	}
	defer ap.Close()
	srv.Close()
	select {
	case _, ok := <-ap.Inbound:
		if ok {
			t.Fatal("unexpected message")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Inbound did not close after server shutdown")
	}
}

func TestWriteReadRoundTripProperty(t *testing.T) {
	f := func(apRaw, clientRaw [8]byte, approaching bool, tm float64, rssi float64) bool {
		var buf bytes.Buffer
		rep := MeasureReport{
			APID:        fmt.Sprintf("%x", apRaw),
			Client:      fmt.Sprintf("%x", clientRaw),
			RSSIdBm:     rssi,
			Approaching: approaching,
			Time:        tm,
		}
		if err := WriteMsg(&buf, TypeMeasureReport, rep); err != nil {
			return false
		}
		env, err := ReadMsg(&buf)
		if err != nil {
			return false
		}
		got, err := DecodePayload[MeasureReport](env)
		if err != nil {
			return false
		}
		// NaN/Inf are not JSON-encodable floats; quick won't generate them
		// from float64 params often, but guard anyway.
		return got.APID == rep.APID && got.Client == rep.Client && got.Approaching == rep.Approaching
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// typedSamples is one message of every type, as the controller and its
// APs send them.
var typedSamples = []struct {
	typ     string
	payload any
}{
	{TypeHello, Hello{APID: "ap1"}},
	{TypeMeasureRequest, MeasureRequest{Client: "c1", Time: 1.5}},
	{TypeMeasureReport, MeasureReport{APID: "ap2", Client: "c1", RSSIdBm: -55, Approaching: true, Time: 1.5}},
	{TypeRoamDirective, &RoamDirective{Client: "c1", ServingAP: "ap1", Candidates: []string{"ap2", "ap3"}, Time: 1.5}},
	{TypeReportBatch, &ReportBatch{APID: "ap1", Seq: 7, Entries: []BatchEntry{
		{Client: "c1", Snap: true, S: 4, T: 1_500_000, R: -6025},
		{Client: "c1", T: 250_000, R: 25},
	}}},
}

// envelopeFrame is the reference framing WriteMsg must match byte for
// byte: the payload marshalled, then marshalled again inside an
// Envelope, behind a 4-byte length.
func envelopeFrame(msgType string, payload any) ([]byte, error) {
	raw, err := json.Marshal(payload)
	if err != nil {
		return nil, err
	}
	env, err := json.Marshal(Envelope{Type: msgType, Payload: raw})
	if err != nil {
		return nil, err
	}
	if len(env) > maxMessage {
		return nil, fmt.Errorf("message of %d bytes exceeds limit", len(env))
	}
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(env))), env...), nil
}

func TestWriteMsgMatchesEnvelopeMarshal(t *testing.T) {
	type row struct {
		name    string
		typ     string
		payload any
		tooBig  bool
	}
	// A string payload's frame is this long plus the string's length.
	overhead := len(`{"type":"hello","payload":""}`)
	rows := []row{
		{name: "HTML and line separators", typ: TypeMeasureReport,
			payload: MeasureReport{APID: "<ap&1>", Client: "c\u2028\u2029"}},
		{name: "non-ASCII ids", typ: TypeHello, payload: Hello{APID: "ap-é-東京-\U0001F4E1"}},
		{name: "nil payload, empty type", typ: "", payload: nil},
		{name: "raw payload", typ: TypeMeasureRequest, payload: json.RawMessage(` {"client" : "<c1>"} `)},
		{name: "largest accepted", typ: TypeHello, payload: strings.Repeat("a", maxMessage-overhead)},
		{name: "one byte over", typ: TypeHello, payload: strings.Repeat("a", maxMessage-overhead+1), tooBig: true},
	}
	for _, m := range typedSamples {
		rows = append(rows, row{name: m.typ, typ: m.typ, payload: m.payload})
	}
	for _, r := range rows {
		want, wantErr := envelopeFrame(r.typ, r.payload)
		var got bytes.Buffer
		err := WriteMsg(&got, r.typ, r.payload)
		if (err != nil) != r.tooBig || (wantErr != nil) != r.tooBig {
			t.Fatalf("%s: WriteMsg error %v, envelope error %v, want an error: %v", r.name, err, wantErr, r.tooBig)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("%s: WriteMsg wrote\n%.200q\nwant\n%.200q", r.name, got.Bytes(), want)
		}
	}
}

// writeCounter counts the Write calls made on it.
type writeCounter struct {
	bytes.Buffer
	writes int
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

func TestWriteMsgOneWrite(t *testing.T) {
	var w writeCounter
	for i, m := range typedSamples {
		if err := WriteMsg(&w, m.typ, m.payload); err != nil {
			t.Fatal(err)
		}
		if w.writes != i+1 {
			t.Fatalf("%s: %d writes for %d frames", m.typ, w.writes, i+1)
		}
	}
	for _, bad := range []struct {
		name    string
		typ     string
		payload any
	}{
		{"oversize", TypeHello, strings.Repeat("a", maxMessage)},
		{"type not UTF-8", "\xe4", Hello{APID: "ap1"}},
		{"payload not JSON", TypeMeasureReport, MeasureReport{RSSIdBm: math.NaN()}},
	} {
		before := w.writes
		if err := WriteMsg(&w, bad.typ, bad.payload); err == nil {
			t.Fatalf("%s: WriteMsg accepted the frame", bad.name)
		}
		if w.writes != before {
			t.Fatalf("%s: rejected frame made %d writes", bad.name, w.writes-before)
		}
	}
	for _, m := range typedSamples {
		if env, err := ReadMsg(&w.Buffer); err != nil || env.Type != m.typ {
			t.Fatalf("read back %q, %v; want %s", env.Type, err, m.typ)
		}
	}
}
