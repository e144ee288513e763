package ctlproto

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"
	"unicode/utf8"
)

// checkEncode checks WriteMsg against the reference framing for one
// payload: equal frames, or an error from both and no Write. fast says
// whether the payload must take the hand-written encoder.
func checkEncode(t *testing.T, msgType string, payload any, fast bool) {
	t.Helper()
	if _, ok := appendPayload(nil, payload); ok != fast {
		t.Errorf("%s %#v: encoder took it: %v, want %v", msgType, payload, ok, fast)
	}
	want, wantErr := envelopeFrame(msgType, payload)
	var w writeCounter
	err := WriteMsg(&w, msgType, payload)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("%s %#v: WriteMsg error %v, reference error %v", msgType, payload, err, wantErr)
	}
	if err != nil && w.writes != 0 {
		t.Fatalf("%s %#v: rejected frame made %d writes", msgType, payload, w.writes)
	}
	if !bytes.Equal(w.Bytes(), want) {
		t.Fatalf("%s %#v: WriteMsg wrote\n%q\nwant\n%q", msgType, payload, w.Bytes(), want)
	}
}

// checkDecode checks DecodePayload[T] against json.Unmarshal for one
// payload: the same value by reflect.DeepEqual and the same error-ness.
// It returns whether the canonical scanner took the payload, and
// checks that ReadMsg's validity test agrees with it and with
// json.Valid.
func checkDecode[T any](t *testing.T, msgType string, p []byte) bool {
	t.Helper()
	got, gotErr := DecodePayload[T](Envelope{Type: msgType, Payload: p})
	var want T
	wantErr := json.Unmarshal(p, &want)
	if (gotErr != nil) != (wantErr != nil) || !reflect.DeepEqual(got, want) {
		t.Fatalf("%s %q: DecodePayload %#v, %v; json.Unmarshal %#v, %v", msgType, p, got, gotErr, want, wantErr)
	}
	var v T
	scanned := scanPayload(&v, p)
	if canonicalPayload(msgType, p) != scanned {
		t.Fatalf("%s %q: validity scan and decoding scan disagree", msgType, p)
	}
	if scanned && !json.Valid(p) {
		t.Fatalf("%s %q: scanner accepted invalid JSON", msgType, p)
	}
	return scanned
}

// TestEncoderMatchesMarshal runs the encoder's edge cases through
// checkEncode: floats on both sides of floatEncoder's 'e'/'f' cutoffs
// (1e-6 and 1e21), negative zero (omitted as empty), subnormals and
// MaxFloat64, integer bounds, nil slices and pointers, and the values
// that must go to json.Marshal: strings it escapes, NaN and infinities.
func TestEncoderMatchesMarshal(t *testing.T) {
	negZero := math.Copysign(0, -1)
	floats := []float64{
		0, negZero, 1, -60.25, 1.5, 123456.789, 1e20,
		1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1), -1e-6,
		1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)), -1e21,
		1e-7, -1e-7, 1.5e-10, 1e-100, 1e100, 1.7e300,
		5e-324, 2.2250738585072009e-308, math.SmallestNonzeroFloat64 * 3,
		math.MaxFloat64, -math.MaxFloat64,
	}
	for _, f := range floats {
		checkEncode(t, TypeMeasureRequest, MeasureRequest{Client: "c1", Time: f}, true)
		checkEncode(t, TypeMeasureReport, MeasureReport{APID: "ap1", Client: "c1", RSSIdBm: f, Time: f}, true)
		checkEncode(t, TypeRoamDirective, &RoamDirective{Client: "c1", ServingAP: "ap1", Time: f}, true)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		checkEncode(t, TypeMeasureRequest, MeasureRequest{Client: "c1", Time: bad}, false)
		checkEncode(t, TypeMeasureReport, MeasureReport{RSSIdBm: bad}, false)
		checkEncode(t, TypeRoamDirective, RoamDirective{Time: bad}, false)
	}
	for _, v := range []int64{0, 1, -1, math.MaxInt64, math.MinInt64} {
		checkEncode(t, TypeReportBatch, &ReportBatch{APID: "ap1", Seq: uint64(v), Entries: []BatchEntry{
			{Client: "c1", Snap: v > 0, S: int(v), T: v, R: -v},
			{Client: "c2", T: v},
		}}, true)
	}
	checkEncode(t, TypeReportBatch, ReportBatch{APID: "ap1", Seq: math.MaxUint64}, true)
	checkEncode(t, TypeReportBatch, ReportBatch{Entries: []BatchEntry{}}, true)
	checkEncode(t, TypeRoamDirective, RoamDirective{Candidates: []string{}}, true)
	checkEncode(t, TypeRoamDirective, RoamDirective{Candidates: []string{"ap2", "", "ap3"}}, true)
	checkEncode(t, TypeMeasureReport, MeasureReport{Approaching: true}, true)
	checkEncode(t, TypeHello, Hello{APID: " !#$%'()*+,-./09:;=?@AZ[]^_`az{|}~"}, true)
	for _, s := range []string{`"`, `\`, "<", ">", "&", "\x00", "\n", "\x1f", "\x7f", "é", " ", "\xff"} {
		checkEncode(t, TypeHello, Hello{APID: "ap" + s}, false)
		checkEncode(t, TypeReportBatch, &ReportBatch{APID: "ap1", Entries: []BatchEntry{{Client: "c" + s}}}, false)
		checkEncode(t, TypeRoamDirective, RoamDirective{Client: "c1", Candidates: []string{"ap2", s}}, false)
		if utf8.ValidString(s) {
			checkEncode(t, "type"+s, Hello{APID: "ap1"}, true)
		}
	}
	checkEncode(t, TypeReportBatch, (*ReportBatch)(nil), false)
	checkEncode(t, TypeRoamDirective, (*RoamDirective)(nil), false)
	checkEncode(t, TypeMeasureRequest, &MeasureRequest{Client: "c1"}, false)
}

// TestScannerMatchesUnmarshal runs the scanner's edge cases through
// checkDecode and pins which of them the scanner takes: integer and
// float bounds, a fraction or an exponent into an integer field, range
// errors, upper-case and duplicate keys, whitespace, escapes, non-ASCII
// and null fields. Everything the scanner declines must still decode
// as json.Unmarshal decodes it.
func TestScannerMatchesUnmarshal(t *testing.T) {
	batch := func(entry string) string { return `{"ap_id":"ap1","seq":7,"entries":[` + entry + `]}` }
	cases := []struct {
		typ     string
		payload string
		scans   bool
	}{
		{TypeReportBatch, batch(`{"client":"c1","snap":true,"s":4,"t":1500000,"r":-6025},{"client":"c1","t":250000,"r":25}`), true},
		{TypeReportBatch, batch(`{"client":"c1","snap":false,"s":0,"t":0,"r":0}`), true},
		{TypeReportBatch, batch(`{"client":"c1","t":-9223372036854775808,"r":9223372036854775807}`), true},
		{TypeReportBatch, batch(`{"client":"c1","t":-0,"r":0}`), true},
		{TypeReportBatch, `{"ap_id":"ap1","seq":18446744073709551615,"entries":[]}`, true},
		{TypeReportBatch, `{"ap_id":"ap1","seq":0,"entries":null}`, true},
		{TypeReportBatch, `{"ap_id":"<&>","seq":0,"entries":null}`, true},
		{TypeReportBatch, batch(`{"client":"c1","t":1.0,"r":0}`), false},
		{TypeReportBatch, batch(`{"client":"c1","t":1e2,"r":0}`), false},
		{TypeReportBatch, batch(`{"client":"c1","t":9223372036854775808,"r":0}`), false},
		{TypeReportBatch, batch(`{"client":"c1","s":9223372036854775808,"t":1,"r":0}`), false},
		{TypeReportBatch, batch(`{"client":"c1","snap":1,"t":1,"r":0}`), false},
		{TypeReportBatch, batch(`{"client":"c1","t":1}`), false},
		{TypeReportBatch, batch(`{"client":"c\\","t":1,"r":0}`), false},
		{TypeReportBatch, batch(`{"client":"c\u0031","t":1,"r":0}`), false},
		{TypeReportBatch, batch(`{"client":"c` + "\x01" + `","t":1,"r":0}`), false},
		{TypeReportBatch, batch(`{"client":"cé","t":1,"r":0}`), false},
		{TypeReportBatch, batch(`{"client":null,"t":1,"r":0}`), false},
		{TypeReportBatch, batch(`{"Client":"c1","t":1,"r":0}`), false},
		{TypeReportBatch, batch(`{"client":"c1","t":1,"t":2,"r":0}`), false},
		{TypeReportBatch, batch(`{"client":"c1","r":0,"t":1}`), false},
		{TypeReportBatch, batch(`{"client":"c1","t":1,"r":0},`), false},
		{TypeReportBatch, batch(`{"client":"c1","t":1,"r":0} `), false},
		{TypeReportBatch, batch(`{"client":"c1","t":1,"r":0,"x":1}`), false},
		{TypeReportBatch, `{"ap_id":"ap1","seq":18446744073709551616,"entries":[]}`, false},
		{TypeReportBatch, `{"ap_id":"ap1","seq":-0,"entries":[]}`, false},
		{TypeReportBatch, `{"ap_id":"ap1","seq":-1,"entries":[]}`, false},
		{TypeReportBatch, `{"ap_id":"ap1","seq":1}`, false},
		{TypeReportBatch, `{"ap_id":"ap1","seq":1,"entries":[]}x`, false},
		{TypeReportBatch, `{"ap_id":"ap1", "seq":1,"entries":[]}`, false},
		{TypeReportBatch, `{"ap_id":"ap1","seq":01,"entries":[]}`, false},
		{TypeReportBatch, `{}`, false},
		{TypeReportBatch, `null`, false},
		{TypeMeasureRequest, `{"client":"c1","time":1.5}`, true},
		{TypeMeasureRequest, `{"client":"c1","time":1.0}`, true},
		{TypeMeasureRequest, `{"client":"c1","time":-0}`, true},
		{TypeMeasureRequest, `{"client":"c1","time":0}`, true},
		{TypeMeasureRequest, `{"client":"c1","time":1E+2}`, true},
		{TypeMeasureRequest, `{"client":"c1","time":1e-400}`, true},
		{TypeMeasureRequest, `{"client":"c1","time":4.9e-324}`, true},
		{TypeMeasureRequest, `{"client":"c1","time":1.7976931348623157e308}`, true},
		{TypeMeasureRequest, `{"client":"c1","time":1e400}`, false},
		{TypeMeasureRequest, `{"client":"c1","time":.5}`, false},
		{TypeMeasureRequest, `{"client":"c1","time":1.}`, false},
		{TypeMeasureRequest, `{"client":"c1","time":1e}`, false},
		{TypeMeasureRequest, `{"client":"c1","time":+1}`, false},
		{TypeMeasureRequest, `{"client":"c1","time":-}`, false},
		{TypeMeasureRequest, `{"client":"c1","time":null}`, false},
		{TypeMeasureRequest, `{"client":"c1","time":"1"}`, false},
		{TypeMeasureRequest, `{"client":"c1"}`, true},
		{TypeMeasureRequest, `{"time":1,"client":"c1"}`, false},
		{TypeMeasureRequest, `{"client" :"c1"}`, false},
		{TypeMeasureReport, `{"ap_id":"ap2","client":"c1","rssi_dbm":-55,"approaching":true,"time":1.5}`, true},
		{TypeMeasureReport, `{"ap_id":"ap2","client":"c1","rssi_dbm":-55,"approaching":false,"time":0}`, true},
		{TypeMeasureReport, `{"ap_id":"ap2","client":"c1","rssi_dbm":-55,"approaching":1,"time":0}`, false},
		{TypeMeasureReport, `{"ap_id":"ap2","client":"c1","rssi_dbm":-55,"approaching":null,"time":0}`, false},
		{TypeRoamDirective, `{"client":"c1","serving_ap":"ap1","candidates":["ap2","ap3"],"time":1.5}`, true},
		{TypeRoamDirective, `{"client":"c1","serving_ap":"ap1","candidates":[]}`, true},
		{TypeRoamDirective, `{"client":"c1","serving_ap":"ap1","candidates":null}`, true},
		{TypeRoamDirective, `{"client":"c1","serving_ap":"ap1","candidates":[null]}`, false},
		{TypeRoamDirective, `{"client":"c1","serving_ap":"ap1","candidates":["ap2",]}`, false},
		{TypeRoamDirective, `{"client":"c1","serving_ap":"ap1","candidates":[,"ap2"]}`, false},
		{TypeRoamDirective, `{"client":"c1","serving_ap":"ap1"}`, false},
		{TypeHello, `{"ap_id":"ap1"}`, true},
		{TypeHello, `{"ap_id":"ap1","version":2}`, false},
		{TypeHello, `{"ap_id":"ap1","version":0}`, false},
		{TypeHello, `{"ap_id":"ap1","version":2e0}`, false},
		{TypeHello, `{"AP_ID":"ap1"}`, false},
		{TypeHello, "{\"ap_id\":\"ap1\"}\n", false},
	}
	for _, c := range cases {
		if got := decodeAs(t, c.typ, []byte(c.payload)); got != c.scans {
			t.Errorf("%s %s: scanner took it: %v, want %v", c.typ, c.payload, got, c.scans)
		}
	}
}

// decodeAs runs checkDecode with the payload type msgType names.
func decodeAs(t *testing.T, msgType string, p []byte) bool {
	t.Helper()
	switch msgType {
	case TypeReportBatch:
		return checkDecode[ReportBatch](t, msgType, p)
	case TypeMeasureRequest:
		return checkDecode[MeasureRequest](t, msgType, p)
	case TypeMeasureReport:
		return checkDecode[MeasureReport](t, msgType, p)
	case TypeRoamDirective:
		return checkDecode[RoamDirective](t, msgType, p)
	case TypeHello:
		return checkDecode[Hello](t, msgType, p)
	}
	t.Fatalf("no payload type for %q", msgType)
	return false
}

// hotTypes are the message types the codec carries without
// encoding/json.
var hotTypes = []string{TypeReportBatch, TypeMeasureRequest, TypeMeasureReport, TypeRoamDirective, TypeHello}

// TestDecodeBatchIntoReuses checks the server's reused batch: entries
// decode into the previous batch's array, and every decode, scanned or
// not, equals DecodePayload's.
func TestDecodeBatchIntoReuses(t *testing.T) {
	var b ReportBatch
	for _, c := range []struct {
		payload string
		scans   bool
	}{
		{`{"ap_id":"ap1","seq":1,"entries":[{"client":"c1","snap":true,"s":2,"t":5,"r":-1},{"client":"c2","snap":true,"s":3,"t":6,"r":-2}]}`, true},
		{`{"ap_id":"ap1","seq":2,"entries":[{"client":"c3","t":1,"r":1}]}`, true},
		{`{"ap_id":"ap1","seq":3,"entries":[]}`, true},
		{`{"ap_id":"ap1","seq":4,"entries":[{"client":"c4","t":1, "r":1}]}`, false},
		{`{"ap_id":"ap1","seq":5,"entries":null}`, true},
		{`{"ap_id":"ap1","seq":6,"entries":[{"client":"c5","t":1.5,"r":1}]}`, false},
		{`{"ap_id":"ap1","seq":7,"entries":[{"client":"c6","t":1,"r":1}]}`, true},
		{`{"ap_id":"ap1","seq":8,"entries":[{"client":"c7","t":2,"r":2}]}`, true},
	} {
		env := Envelope{Type: TypeReportBatch, Payload: []byte(c.payload)}
		want, wantErr := DecodePayload[ReportBatch](env)
		before := b.Entries[:cap(b.Entries)]
		err := decodeBatchInto(env, &b)
		if (err != nil) != (wantErr != nil) || !reflect.DeepEqual(b, want) {
			t.Fatalf("%s: decoded %#v, %v; want %#v, %v", c.payload, b, err, want, wantErr)
		}
		reused := len(before) > 0 && len(b.Entries) > 0 && &b.Entries[0] == &before[0]
		if c.scans && len(before) >= len(b.Entries) && len(b.Entries) > 0 && !reused {
			t.Fatalf("%s: entries did not reuse the previous array", c.payload)
		}
		if !c.scans && reused {
			t.Fatalf("%s: json.Unmarshal decoded into the previous array", c.payload)
		}
	}
}

// FuzzWriteMsgPayload builds a hot payload from fuzzed field values:
// WriteMsg's frame must equal json.Marshal(Envelope{T,
// json.Marshal(p)}) behind its length, or both must fail and WriteMsg
// must not write.
func FuzzWriteMsgPayload(f *testing.F) {
	f.Add(uint8(0), "ap1", "c1", 1.5, -60.25, int64(4), int64(-6025), uint64(7), true)
	f.Add(uint8(1), "ap<1>", "c ", 1e21, 1e-7, int64(math.MinInt64), int64(math.MaxInt64), uint64(math.MaxUint64), false)
	f.Add(uint8(2), "", "", math.Copysign(0, -1), 5e-324, int64(0), int64(-1), uint64(0), false)
	f.Add(uint8(5), "ap1", "c\"1", math.MaxFloat64, math.Nextafter(1e-6, 0), int64(1), int64(2), uint64(3), true)
	f.Fuzz(func(t *testing.T, kind uint8, s1, s2 string, f1, f2 float64, i1, i2 int64, u uint64, b bool) {
		var entries []BatchEntry
		if !b || u%4 != 0 {
			entries = []BatchEntry{}
			for k := uint64(0); k < u%4; k++ {
				entries = append(entries, BatchEntry{Client: s2, Snap: b, S: int(i1) + int(k), T: i1 - int64(k), R: i2})
			}
		}
		var cands []string
		if !b || s2 != "" {
			cands = append([]string{}, s1, s2)[:u%3]
		}
		payloads := []struct {
			typ string
			p   any
		}{
			{TypeHello, Hello{APID: s1}},
			{TypeMeasureRequest, MeasureRequest{Client: s1, Time: f1}},
			{TypeMeasureReport, MeasureReport{APID: s1, Client: s2, RSSIdBm: f1, Approaching: b, Time: f2}},
			{TypeRoamDirective, RoamDirective{Client: s1, ServingAP: s2, Candidates: cands, Time: f1}},
			{TypeRoamDirective, &RoamDirective{Client: s2, ServingAP: s1, Candidates: cands, Time: f2}},
			{TypeReportBatch, ReportBatch{APID: s1, Seq: u, Entries: entries}},
			{TypeReportBatch, &ReportBatch{APID: s2, Seq: u, Entries: entries}},
		}
		m := payloads[int(kind)%len(payloads)]
		want, wantErr := envelopeFrame(m.typ, m.p)
		var w writeCounter
		err := WriteMsg(&w, m.typ, m.p)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("%#v: WriteMsg error %v, reference error %v", m.p, err, wantErr)
		}
		if err != nil && w.writes != 0 {
			t.Fatalf("%#v: rejected frame made %d writes", m.p, w.writes)
		}
		if !bytes.Equal(w.Bytes(), want) {
			t.Fatalf("%#v: WriteMsg wrote\n%q\nwant\n%q", m.p, w.Bytes(), want)
		}
	})
}

// FuzzDecodePayload feeds fuzzed bytes to DecodePayload for every hot
// type: each result must equal json.Unmarshal's by reflect.DeepEqual,
// with the same error-ness, and a payload the scanner takes must be
// valid JSON.
func FuzzDecodePayload(f *testing.F) {
	for _, m := range typedSamples {
		b, err := json.Marshal(m.payload)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, s := range []string{
		`{"ap_id":"ap1","seq":7,"entries":[{"client":"c1","t":1.0,"r":0}]}`,
		`{"ap_id":"ap1","seq":7,"entries":[{"client":"c1","t":1,"r":0}]}`,
		`{"ap_id":"ap1","seq":-0,"entries":[]}`,
		`{"client":"c1","time":1e400}`,
		`{"client":"c1","serving_ap":"ap1","candidates":["ap2",null]}`,
		// What an AP of the old protocol sent: a versioned hello and a
		// per-report payload.
		`{"ap_id":"ap1","version":2}`,
		`{"ap_id":"ap1","client":"c1","state":3,"time":1.5,"rssi_dbm":-60.25}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		for _, typ := range hotTypes {
			decodeAs(t, typ, p)
		}
	})
}
