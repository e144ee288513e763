package ctlproto

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"sync"
)

// The reflection-free codec of the hot message types: Hello,
// MeasureRequest, MeasureReport, RoamDirective and ReportBatch. It
// matches encoding/json exactly, on a canonical shape, and hands
// everything else to encoding/json (DESIGN.md §11):
//
//   - wireEncoder appends the bytes json.Marshal writes for a value of
//     a hot type (or a non-nil pointer to a ReportBatch or a
//     RoamDirective) whose strings are printable ASCII other than '"',
//     '\', '<', '>' and '&' and whose floats are finite. Any other
//     value declines to json.Marshal.
//   - wireScanner reads a hot type's canonical shape: the keys as the
//     encoder writes them, in order, each omitempty key optional in its
//     place; no whitespace; strings of printable ASCII without '\';
//     numbers in JSON's grammar, parsed with the strconv calls
//     encoding/json makes. That shape is a subset of JSON on which
//     json.Unmarshal returns the same value; any other input declines
//     to json.Unmarshal.
//
// FuzzWriteMsgPayload and FuzzDecodePayload pin both halves against
// encoding/json.

// framePool recycles WriteMsg's frame buffers: a frame is built,
// written with one Write and dropped, so the write side leaves no
// garbage per frame.
var framePool = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledFrame bounds the buffers framePool keeps, so one large frame
// does not pin its buffer.
const maxPooledFrame = 64 << 10

// appendFrame appends one length-prefixed frame: the bytes of
// json.Marshal(Envelope{msgType, json.Marshal(payload)}) behind their
// big-endian length.
func appendFrame(b []byte, msgType string, payload any) ([]byte, error) {
	start := len(b)
	b = append(b, 0, 0, 0, 0)
	b = append(b, envTypeKey...)
	e := wireEncoder{b: b, ok: true}
	e.str(msgType)
	b = e.b
	if !e.ok {
		typ, _ := json.Marshal(msgType) // marshaling a string cannot fail
		b = append(b, typ...)
	}
	b = append(b, envPayloadKey...)
	mark := len(b)
	b, ok := appendPayload(b, payload)
	if !ok {
		raw, err := json.Marshal(payload)
		if err != nil {
			return b[:start], fmt.Errorf("ctlproto: marshaling %s: %w", msgType, err)
		}
		b = append(b[:mark], raw...)
	}
	b = append(b, '}')
	n := len(b) - start - 4
	if n > maxMessage {
		return b[:start], fmt.Errorf("ctlproto: message of %d bytes exceeds limit", n)
	}
	binary.BigEndian.PutUint32(b[start:], uint32(n))
	return b, nil
}

// appendPayload appends json.Marshal(payload) for the hot types and
// reports whether it did; on false, b's bytes past its input length
// are junk and the caller falls back to json.Marshal.
func appendPayload(b []byte, payload any) ([]byte, bool) {
	e := wireEncoder{b: b, ok: true}
	switch p := payload.(type) {
	case *ReportBatch:
		if p == nil {
			return b, false
		}
		e.reportBatch(p)
	case ReportBatch:
		e.reportBatch(&p)
	case *RoamDirective:
		if p == nil {
			return b, false
		}
		e.roamDirective(p)
	case RoamDirective:
		e.roamDirective(&p)
	case MeasureRequest:
		e.measureRequest(&p)
	case MeasureReport:
		e.measureReport(&p)
	case Hello:
		e.hello(&p)
	default:
		return b, false
	}
	return e.b, e.ok
}

// wireEncoder appends canonical JSON to b. ok turns false at the first
// value json.Marshal would write differently or reject, and stays
// false.
type wireEncoder struct {
	b  []byte
	ok bool
}

func (e *wireEncoder) lit(s string) { e.b = append(e.b, s...) }

// str appends s quoted; it declines a string json.Marshal would escape.
func (e *wireEncoder) str(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			e.ok = false
			return
		}
	}
	e.b = append(e.b, '"')
	e.b = append(e.b, s...)
	e.b = append(e.b, '"')
}

// float appends f as encoding/json's floatEncoder does; it declines a
// NaN or an infinity, which json.Marshal rejects.
func (e *wireEncoder) float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		e.ok = false
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, f, format, -1, 64)
	if format == 'e' {
		// Clean up e-09 to e-9, as encoding/json does.
		if n := len(e.b); e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
			e.b[n-2] = e.b[n-1]
			e.b = e.b[:n-1]
		}
	}
}

func (e *wireEncoder) int(v int64)   { e.b = strconv.AppendInt(e.b, v, 10) }
func (e *wireEncoder) uint(v uint64) { e.b = strconv.AppendUint(e.b, v, 10) }
func (e *wireEncoder) bool(v bool)   { e.b = strconv.AppendBool(e.b, v) }

func (e *wireEncoder) hello(p *Hello) {
	e.lit(`{"ap_id":`)
	e.str(p.APID)
	e.lit(`}`)
}

func (e *wireEncoder) measureRequest(p *MeasureRequest) {
	e.lit(`{"client":`)
	e.str(p.Client)
	if p.Time != 0 {
		e.lit(`,"time":`)
		e.float(p.Time)
	}
	e.lit(`}`)
}

func (e *wireEncoder) measureReport(p *MeasureReport) {
	e.lit(`{"ap_id":`)
	e.str(p.APID)
	e.lit(`,"client":`)
	e.str(p.Client)
	e.lit(`,"rssi_dbm":`)
	e.float(p.RSSIdBm)
	e.lit(`,"approaching":`)
	e.bool(p.Approaching)
	e.lit(`,"time":`)
	e.float(p.Time)
	e.lit(`}`)
}

func (e *wireEncoder) roamDirective(p *RoamDirective) {
	e.lit(`{"client":`)
	e.str(p.Client)
	e.lit(`,"serving_ap":`)
	e.str(p.ServingAP)
	e.lit(`,"candidates":`)
	if p.Candidates == nil {
		e.lit(`null`)
	} else {
		e.lit(`[`)
		for i, c := range p.Candidates {
			if i > 0 {
				e.lit(`,`)
			}
			e.str(c)
		}
		e.lit(`]`)
	}
	if p.Time != 0 {
		e.lit(`,"time":`)
		e.float(p.Time)
	}
	e.lit(`}`)
}

func (e *wireEncoder) reportBatch(p *ReportBatch) {
	e.lit(`{"ap_id":`)
	e.str(p.APID)
	e.lit(`,"seq":`)
	e.uint(p.Seq)
	e.lit(`,"entries":`)
	if p.Entries == nil {
		e.lit(`null`)
	} else {
		e.lit(`[`)
		for i := range p.Entries {
			if i > 0 {
				e.lit(`,`)
			}
			x := &p.Entries[i]
			e.lit(`{"client":`)
			e.str(x.Client)
			if x.Snap {
				e.lit(`,"snap":true`)
			}
			if x.S != 0 {
				e.lit(`,"s":`)
				e.int(int64(x.S))
			}
			e.lit(`,"t":`)
			e.int(x.T)
			e.lit(`,"r":`)
			e.int(x.R)
			e.lit(`}`)
		}
		e.lit(`]`)
	}
	e.lit(`}`)
}

// wireType returns the Type constant typ spells, so a frame of a known
// type allocates no type string.
func wireType(typ []byte) string {
	switch string(typ) {
	case TypeHello:
		return TypeHello
	case TypeMeasureRequest:
		return TypeMeasureRequest
	case TypeMeasureReport:
		return TypeMeasureReport
	case TypeRoamDirective:
		return TypeRoamDirective
	case TypeReportBatch:
		return TypeReportBatch
	}
	return string(typ)
}

// canonicalPayload reports whether p is the canonical shape of typ's
// payload type. Such a payload is one JSON value, so ReadMsg need not
// run json.Valid over it.
func canonicalPayload(typ string, p []byte) bool {
	switch typ {
	case TypeReportBatch:
		return scanReportBatch(p, nil)
	case TypeMeasureRequest:
		return scanMeasureRequest(p, nil)
	case TypeMeasureReport:
		return scanMeasureReport(p, nil)
	case TypeRoamDirective:
		return scanRoamDirective(p, nil)
	case TypeHello:
		return scanHello(p, nil)
	}
	return false
}

// scanPayload decodes p into out, a pointer to a zero value, with the
// canonical scanner of out's type, and reports whether it did; on
// false out holds junk.
func scanPayload(out any, p []byte) bool {
	switch o := out.(type) {
	case *ReportBatch:
		return scanReportBatch(p, o)
	case *MeasureRequest:
		return scanMeasureRequest(p, o)
	case *MeasureReport:
		return scanMeasureReport(p, o)
	case *RoamDirective:
		return scanRoamDirective(p, o)
	case *Hello:
		return scanHello(p, o)
	}
	return false
}

// wireScanner reads canonical JSON from b. ok turns false at the first
// byte outside the canonical grammar and stays false; every read after
// returns a zero value.
type wireScanner struct {
	b  []byte
	ok bool
}

// opt consumes l if the input continues with it.
func (s *wireScanner) opt(l string) bool {
	if s.ok && len(s.b) >= len(l) && string(s.b[:len(l)]) == l {
		s.b = s.b[len(l):]
		return true
	}
	return false
}

// lit consumes l, which the input must continue with.
func (s *wireScanner) lit(l string) {
	if !s.opt(l) {
		s.ok = false
	}
}

// done reports whether the scan consumed all of its input.
func (s *wireScanner) done() bool { return s.ok && len(s.b) == 0 }

// str consumes a string of printable ASCII without '\' and returns its
// contents, which alias the input.
func (s *wireScanner) str() []byte {
	if s.ok && len(s.b) > 0 && s.b[0] == '"' {
		for i := 1; i < len(s.b); i++ {
			c := s.b[i]
			if c == '"' {
				v := s.b[1:i]
				s.b = s.b[i+1:]
				return v
			}
			if c < 0x20 || c > 0x7e || c == '\\' {
				break
			}
		}
	}
	s.ok = false
	return nil
}

// number consumes a number in JSON's grammar and returns its text.
func (s *wireScanner) number() []byte {
	b := s.b
	i := 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i)
	default:
		s.ok = false
		return nil
	}
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			s.ok = false
			return nil
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			s.ok = false
			return nil
		}
		i = j
	}
	s.b = b[i:]
	return b[:i]
}

// digits returns the index of the first non-digit at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// int consumes a number for an integer field of the given bit size: it
// parses as encoding/json does, so a fraction, an exponent or an
// overflow declines.
func (s *wireScanner) int(bits int) int64 {
	n := s.number()
	if !s.ok {
		return 0
	}
	v, err := strconv.ParseInt(string(n), 10, bits)
	if err != nil {
		s.ok = false
	}
	return v
}

// uint consumes a number for a uint64 field, as encoding/json parses
// it.
func (s *wireScanner) uint() uint64 {
	n := s.number()
	if !s.ok {
		return 0
	}
	v, err := strconv.ParseUint(string(n), 10, 64)
	if err != nil {
		s.ok = false
	}
	return v
}

// float consumes a number for a float64 field, as encoding/json parses
// it: a range error declines.
func (s *wireScanner) float() float64 {
	n := s.number()
	if !s.ok {
		return 0
	}
	v, err := strconv.ParseFloat(string(n), 64)
	if err != nil {
		s.ok = false
	}
	return v
}

func (s *wireScanner) bool() bool {
	if s.opt("true") {
		return true
	}
	s.lit("false")
	return false
}

// The scanners below decode p into out, or only validate it when out
// is nil, and report whether p had the canonical shape.

func scanHello(p []byte, out *Hello) bool {
	s := wireScanner{b: p, ok: true}
	s.lit(`{"ap_id":`)
	ap := s.str()
	s.lit(`}`)
	if !s.done() {
		return false
	}
	if out != nil {
		*out = Hello{APID: string(ap)}
	}
	return true
}

func scanMeasureRequest(p []byte, out *MeasureRequest) bool {
	s := wireScanner{b: p, ok: true}
	s.lit(`{"client":`)
	client := s.str()
	var t float64
	if s.opt(`,"time":`) {
		t = s.float()
	}
	s.lit(`}`)
	if !s.done() {
		return false
	}
	if out != nil {
		*out = MeasureRequest{Client: string(client), Time: t}
	}
	return true
}

func scanMeasureReport(p []byte, out *MeasureReport) bool {
	s := wireScanner{b: p, ok: true}
	s.lit(`{"ap_id":`)
	ap := s.str()
	s.lit(`,"client":`)
	client := s.str()
	s.lit(`,"rssi_dbm":`)
	rssi := s.float()
	s.lit(`,"approaching":`)
	approaching := s.bool()
	s.lit(`,"time":`)
	t := s.float()
	s.lit(`}`)
	if !s.done() {
		return false
	}
	if out != nil {
		*out = MeasureReport{APID: string(ap), Client: string(client), RSSIdBm: rssi, Approaching: approaching, Time: t}
	}
	return true
}

func scanRoamDirective(p []byte, out *RoamDirective) bool {
	s := wireScanner{b: p, ok: true}
	s.lit(`{"client":`)
	client := s.str()
	s.lit(`,"serving_ap":`)
	serving := s.str()
	s.lit(`,"candidates":`)
	var cands []string
	if !s.opt(`null`) {
		s.lit(`[`)
		if out != nil {
			cands = []string{}
		}
		if !s.opt(`]`) {
			for s.ok {
				c := s.str()
				if out != nil {
					cands = append(cands, string(c))
				}
				if s.opt(`]`) {
					break
				}
				s.lit(`,`)
			}
		}
	}
	var t float64
	if s.opt(`,"time":`) {
		t = s.float()
	}
	s.lit(`}`)
	if !s.done() {
		return false
	}
	if out != nil {
		*out = RoamDirective{Client: string(client), ServingAP: string(serving), Candidates: cands, Time: t}
	}
	return true
}

// scanReportBatch appends the entries into out.Entries' array, so a
// caller that decodes batch after batch into one ReportBatch reuses it.
func scanReportBatch(p []byte, out *ReportBatch) bool {
	s := wireScanner{b: p, ok: true}
	s.lit(`{"ap_id":`)
	ap := s.str()
	s.lit(`,"seq":`)
	seq := s.uint()
	s.lit(`,"entries":`)
	var entries []BatchEntry
	if !s.opt(`null`) {
		s.lit(`[`)
		if out != nil {
			entries = out.Entries[:0]
			if entries == nil {
				entries = []BatchEntry{}
			}
		}
		if !s.opt(`]`) {
			for s.ok {
				if out == nil {
					s.entry(nil)
				} else {
					entries = append(entries, BatchEntry{})
					s.entry(&entries[len(entries)-1])
				}
				if s.opt(`]`) {
					break
				}
				s.lit(`,`)
			}
		}
	}
	s.lit(`}`)
	if !s.done() {
		return false
	}
	if out != nil {
		*out = ReportBatch{APID: string(ap), Seq: seq, Entries: entries}
	}
	return true
}

// entry scans one BatchEntry into e, or only validates it when e is
// nil.
func (s *wireScanner) entry(e *BatchEntry) {
	s.lit(`{"client":`)
	client := s.str()
	var snap bool
	if s.opt(`,"snap":`) {
		snap = s.bool()
	}
	var st int64
	if s.opt(`,"s":`) {
		st = s.int(strconv.IntSize)
	}
	s.lit(`,"t":`)
	t := s.int(64)
	s.lit(`,"r":`)
	r := s.int(64)
	s.lit(`}`)
	if e != nil && s.ok {
		*e = BatchEntry{Client: string(client), Snap: snap, S: int(st), T: t, R: r}
	}
}

// decodeBatchInto is DecodePayload[ReportBatch] into a reused batch:
// the scanner appends into b.Entries' array. The fallback decodes a
// fresh batch, since json.Unmarshal would decode into the stale
// elements past b.Entries' length and keep their absent fields.
func decodeBatchInto(env Envelope, b *ReportBatch) error {
	if scanReportBatch(env.Payload, b) {
		return nil
	}
	fresh, err := unmarshalPayload[ReportBatch](env)
	*b = fresh
	return err
}
