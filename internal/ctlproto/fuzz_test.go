package ctlproto

import (
	"bytes"
	"encoding/json"
	"io"
	"reflect"
	"testing"
	"unicode/utf8"
)

// frame builds one valid wire message for the seed corpus.
func frame(tb testing.TB, msgType string, payload any) []byte {
	tb.Helper()
	var b bytes.Buffer
	if err := WriteMsg(&b, msgType, payload); err != nil {
		tb.Fatal(err)
	}
	return b.Bytes()
}

// FuzzReadMsg feeds arbitrary byte streams to the wire decoder: it
// must reject malformed frames with an error, never panic, and every
// accepted envelope must survive payload decoding and re-framing.
func FuzzReadMsg(f *testing.F) {
	// Valid frames for every message type.
	f.Add(frame(f, TypeHello, Hello{APID: "ap1"}))
	f.Add(frame(f, TypeReportBatch, ReportBatch{APID: "ap1", Entries: []BatchEntry{{Client: "c1", Snap: true, S: 1, T: 1_500_000, R: -6000}}}))
	f.Add(frame(f, TypeMeasureRequest, MeasureRequest{Client: "c1"}))
	f.Add(frame(f, TypeMeasureReport, MeasureReport{APID: "ap2", Client: "c1", RSSIdBm: -55, Approaching: true}))
	f.Add(frame(f, TypeRoamDirective, RoamDirective{Client: "c1", ServingAP: "ap1", Candidates: []string{"ap2", "ap3"}}))
	// Pathological frames: empty, zero length, huge length prefix,
	// truncated payload, length/body mismatch, non-JSON body.
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 'x'})
	f.Add([]byte{0, 0, 0, 8, '{', '}'})
	f.Add([]byte{0, 0, 0, 7, 'n', 'o', 't', 'j', 's', 'o', 'n'})

	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := ReadMsg(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Accepted envelopes must be decodable per type (errors are
		// fine, panics are not) and re-frameable.
		switch env.Type {
		case TypeHello:
			_, _ = DecodePayload[Hello](env)
		case TypeReportBatch:
			_, _ = DecodePayload[ReportBatch](env)
		case TypeMeasureRequest:
			_, _ = DecodePayload[MeasureRequest](env)
		case TypeMeasureReport:
			_, _ = DecodePayload[MeasureReport](env)
		case TypeRoamDirective:
			_, _ = DecodePayload[RoamDirective](env)
		}
		if env.Payload != nil {
			if err := WriteMsg(io.Discard, env.Type, env.Payload); err != nil {
				t.Fatalf("accepted envelope does not re-frame: %v", err)
			}
		}
	})
}

// FuzzBatchRoundTrip drives the delta encoder/decoder pair through
// the real wire framing: any report stream derived from the fuzzed
// parameters must encode, frame, read back, validate, and replay to
// exactly the original reports.
func FuzzBatchRoundTrip(f *testing.F) {
	f.Add(uint64(1), uint8(16), uint8(64), uint16(100))
	f.Add(uint64(2), uint8(1), uint8(1), uint16(10))
	f.Add(uint64(3), uint8(0), uint8(255), uint16(600))

	f.Fuzz(func(t *testing.T, seed uint64, snapEvery, batchSize uint8, n uint16) {
		reports := genReports(seed, int(n%1024), 1+int(seed%9))
		enc := BatchEncoder{APID: "ap1", SnapshotEvery: int(snapEvery)}
		var dec DeltaDecoder
		size := int(batchSize)
		if size < 1 {
			size = 1
		}
		got := 0
		drain := func() {
			var b ReportBatch
			if !enc.Flush(&b) {
				return
			}
			// Through the real framing layer, as the server sees it.
			data := frame(t, TypeReportBatch, b)
			env, err := ReadMsg(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("read framed batch: %v", err)
			}
			rb, err := DecodePayload[ReportBatch](env)
			if err != nil {
				t.Fatalf("decode framed batch: %v", err)
			}
			if err := CheckBatch(&rb); err != nil {
				t.Fatalf("encoder emitted invalid batch: %v", err)
			}
			for i := range rb.Entries {
				var rep MobilityReport
				if err := dec.Apply(rb.APID, &rb.Entries[i], &rep); err != nil {
					t.Fatalf("apply: %v", err)
				}
				if rep != reports[got] {
					t.Fatalf("report %d: %+v != %+v", got, rep, reports[got])
				}
				got++
			}
		}
		for i := range reports {
			if err := enc.Add(&reports[i]); err != nil {
				t.Fatalf("add: %v", err)
			}
			if enc.Len() >= size {
				drain()
			}
		}
		drain()
		if got != len(reports) {
			t.Fatalf("replayed %d of %d reports", got, len(reports))
		}
	})
}

// FuzzDeltaDecode feeds adversarial report-batch frames straight to the
// decode path: the decoder must never panic and must never grow its
// client table past MaxClients, however hostile the lengths and codes.
func FuzzDeltaDecode(f *testing.F) {
	f.Add(frame(f, TypeReportBatch, ReportBatch{APID: "ap1", Entries: []BatchEntry{
		{Client: "c1", Snap: true, S: 5, T: 1_500_000, R: -6000},
		{Client: "c1", T: 1_000_000, R: 25},
	}}))
	f.Add(frame(f, TypeReportBatch, ReportBatch{APID: "ap1", Entries: []BatchEntry{
		{Client: "c1", T: 1}, // delta before any snapshot
	}}))
	f.Add(frame(f, TypeReportBatch, ReportBatch{APID: "ap1", Entries: []BatchEntry{
		{Client: "", Snap: true, S: 1},
		{Client: "c2", Snap: true, S: MaxStateCode + 3},
		{Client: "c3", Snap: true, S: 1, T: int64(1) << 62, R: -(int64(1) << 62)},
	}}))
	f.Add(frame(f, TypeReportBatch, ReportBatch{APID: "ap1"}))

	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := ReadMsg(bytes.NewReader(data))
		if err != nil || env.Type != TypeReportBatch {
			return
		}
		b, err := DecodePayload[ReportBatch](env)
		if err != nil {
			return
		}
		// Mirror the server's handle path: frame-level validation first,
		// then per-entry apply with errors skipped.
		dec := DeltaDecoder{MaxClients: 8}
		if err := CheckBatch(&b); err != nil {
			return
		}
		var rep MobilityReport
		for i := range b.Entries {
			_ = dec.Apply(b.APID, &b.Entries[i], &rep)
			if dec.Clients() > 8 {
				t.Fatalf("client table grew to %d past MaxClients=8", dec.Clients())
			}
		}
	})
}

// FuzzReadMsgRoundTrip drives the framing layer itself: any message
// written by WriteMsg must read back as the same type and payload,
// consuming the buffer exactly. WriteMsg rejects a type that is not
// valid UTF-8; payload strings follow JSON's contract, which carries
// each invalid byte as U+FFFD.
func FuzzReadMsgRoundTrip(f *testing.F) {
	f.Add("hello", "ap1")
	f.Add("measure-request", "c1")
	f.Add("", "")

	f.Fuzz(func(t *testing.T, msgType, field string) {
		type raw struct {
			V string `json:"v"`
		}
		var b bytes.Buffer
		err := WriteMsg(&b, msgType, raw{V: field})
		if !utf8.ValidString(msgType) {
			if err == nil {
				t.Fatalf("type %q is not valid UTF-8 but was written", msgType)
			}
			return
		}
		if err != nil {
			return // e.g. over the size limit: rejected, not panicked
		}
		env, err := ReadMsg(&b)
		if err != nil {
			t.Fatalf("round trip: %v", err)
		}
		if env.Type != msgType {
			t.Fatalf("round trip type %q != %q", env.Type, msgType)
		}
		got, err := DecodePayload[raw](env)
		if err != nil {
			t.Fatalf("round trip payload: %v", err)
		}
		if want := string([]rune(field)); got.V != want {
			t.Fatalf("round trip payload %q != %q", got.V, want)
		}
		if b.Len() != 0 {
			t.Fatalf("%d trailing bytes after one frame", b.Len())
		}
	})
}

// FuzzReadMsgSplit checks ReadMsg's fast path against the decoder it
// stands in for: every body splitEnvelope accepts must give the
// Envelope json.Unmarshal gives. The seeds hold a frame of every
// message type, each of which must take the split, a frame of a type
// the protocol no longer has, and near misses that must not: skipping
// json.Valid fails on the trailing duplicate type and the truncated
// payload, and accepting '\' in the type fails on the escaped type.
func FuzzReadMsgSplit(f *testing.F) {
	for _, m := range typedSamples {
		body := frame(f, m.typ, m.payload)[4:]
		if _, ok := splitEnvelope(body); !ok {
			f.Fatalf("WriteMsg's %s frame misses the split: %s", m.typ, body)
		}
		f.Add(body)
	}
	for _, body := range []string{
		`{"type":"hello","payload": {"ap_id":"ap1"}}`,
		`{"type":"hello","payload":{"ap_id":"ap1"} }`,
		`{"type":"hello","payload":{"ap_id":"ap1"},"type":"measure-report"}`,
		`{"type":"hell\u006f","payload":{"ap_id":"ap1"}}`,
		`{"type":"h\u00e9llo","payload":{}}`,
		`{"type":"héllo","payload":{}}`,
		`{"type":"hello","payload":null}`,
		`{"type":"hello","payload":{"ap_id":"ap`,
		`{"type":"hello","payload":{"ap_id":}`,
		`{"Type":"hello","payload":1}`,
		`{"payload":1,"type":"hello"}`,
		`{"type":"mobility-report","payload":{"ap_id":"ap1","client":"c1","state":4,"time":3,"rssi_dbm":-72}}`,
	} {
		f.Add([]byte(body))
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		got, ok := splitEnvelope(body)
		if !ok {
			return
		}
		var want Envelope
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatalf("split accepted a body json.Unmarshal rejects (%v): %q", err, body)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("split %+v != json.Unmarshal %+v for %q", got, want, body)
		}
	})
}
