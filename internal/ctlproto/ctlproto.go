// Package ctlproto implements the WLAN-controller coordination protocol
// behind the paper's §3.1 roaming design: each AP streams its clients'
// mobility states to the controller; when a client is walking away from
// its AP, the controller asks the neighbor APs to probe it with NULL data
// frames and report signal strength and heading; if a better candidate
// exists, the controller directs the serving AP to disassociate the
// client and the candidate set to answer its probes.
//
// Messages are length-prefixed JSON over TCP: a 4-byte big-endian length
// followed by an envelope {type, payload}. The Coordinator implements the
// decision logic independent of the transport so it is directly testable;
// Server and APConn wire it to real sockets.
//
// Mobility reports travel one way: a BatchEncoder delta/snapshot-encodes
// them into TypeReportBatch frames and the server's DeltaDecoder
// reconstructs them. The server shards its sessions across goroutine
// groups with bounded backpressure; see DESIGN.md §11 for the wire
// format and the backpressure contract.
package ctlproto

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"unicode/utf8"

	"mobiwlan/internal/core"
)

// Message types.
const (
	// TypeHello registers an AP with the controller.
	TypeHello = "hello"
	// TypeMeasureRequest asks an AP to probe a client with NULL frames.
	TypeMeasureRequest = "measure-request"
	// TypeMeasureReport returns the AP's measurement of the client.
	TypeMeasureReport = "measure-report"
	// TypeRoamDirective tells the serving AP to disassociate the client,
	// and names the candidate APs allowed to answer its probe requests.
	TypeRoamDirective = "roam-directive"
	// TypeReportBatch carries an AP's delta/snapshot-encoded mobility
	// reports, one or more to a frame (see ReportBatch).
	TypeReportBatch = "report-batch"
)

// Hello registers an AP.
type Hello struct {
	APID string `json:"ap_id"`
}

// MobilityReport is an AP's periodic classifier output for one client:
// a BatchEncoder's input, a DeltaDecoder's output and the Coordinator's
// input. It is not a wire type; it travels as a ReportBatch entry.
type MobilityReport struct {
	APID   string
	Client string
	State  core.State
	Time   float64
	// RSSIdBm is the serving AP's current measurement of the client.
	RSSIdBm float64
}

// MeasureRequest asks an AP to measure a client.
type MeasureRequest struct {
	Client string `json:"client"`
	// Time is the sim-time stamp of the report that opened the
	// measurement round. Responders echo it into MeasureReport.Time so
	// round-trip accounting stays in sim time and is reproducible across
	// runs.
	Time float64 `json:"time,omitempty"`
}

// MeasureReport is an AP's answer to a MeasureRequest.
type MeasureReport struct {
	APID    string  `json:"ap_id"`
	Client  string  `json:"client"`
	RSSIdBm float64 `json:"rssi_dbm"`
	// Approaching reports the AP's ToF-trend heading estimate.
	Approaching bool    `json:"approaching"`
	Time        float64 `json:"time"`
}

// RoamDirective orders a forced roam.
type RoamDirective struct {
	Client string `json:"client"`
	// ServingAP must disassociate the client.
	ServingAP string `json:"serving_ap"`
	// Candidates are the APs allowed to answer the client's probes.
	Candidates []string `json:"candidates"`
	// Time is the sim-time stamp of the decision: the Time of the
	// measure report that completed the round.
	Time float64 `json:"time,omitempty"`
}

// ReportBatch carries an AP's mobility reports, one or more to a frame.
// Each entry is either a snapshot (absolute values) or a delta against the
// sender's previous report for the same client; the receiver
// reconstructs full MobilityReports with a DeltaDecoder. Entries for
// distinct clients commute, entries for the same client apply in order.
type ReportBatch struct {
	APID string `json:"ap_id"`
	// Seq is the sender's batch sequence number (diagnostic).
	Seq     uint64       `json:"seq"`
	Entries []BatchEntry `json:"entries"`
}

// BatchEntry is one encoded report. Times and RSSI travel as fixed-point
// integers — microseconds of sim time and centi-dB — so deltas are exact
// integer arithmetic and the decoder reconstructs the encoder's input
// reports bit for bit, for any report on the quantization grid.
type BatchEntry struct {
	Client string `json:"client"`
	// Snap marks a snapshot: T, R and S carry absolute values and reset
	// the client's delta history. On a delta, T and R are offsets
	// against the previous reconstructed report.
	Snap bool `json:"snap,omitempty"`
	// S is the classifier state biased by one (core.State+1). On a
	// delta, 0 means "state unchanged"; a snapshot must carry S >= 1.
	S int `json:"s,omitempty"`
	// T is sim time in integer microseconds: absolute on a snapshot,
	// an offset on a delta.
	T int64 `json:"t"`
	// R is RSSI in integer centi-dB (RSSIdBm*100): absolute on a
	// snapshot, an offset on a delta.
	R int64 `json:"r"`
}

// Wire-format bounds. The decoder validates before it allocates or
// stores, following the csi.NewMatrix dimension-validation discipline:
// adversarial lengths are rejected with an error, never sized into a
// buffer or a map first.
const (
	// MaxBatchEntries bounds the entries in one ReportBatch.
	MaxBatchEntries = 512
	// MaxIDLen bounds AP and client identifier lengths.
	MaxIDLen = 128
	// MaxStateCode bounds BatchEntry.S (core.State values are small
	// consecutive integers; leave headroom for additive growth).
	MaxStateCode = 16
)

// timeScale and rssiScale are the fixed-point grids of the batch
// encoding: 1 µs of sim time and 0.01 dB.
const (
	timeScale = 1e6
	rssiScale = 100
)

// QuantTime converts sim-time seconds to the batch encoding's integer
// microsecond grid.
func QuantTime(t float64) int64 { return int64(math.Round(t * timeScale)) }

// UnquantTime converts integer microseconds back to seconds.
func UnquantTime(us int64) float64 { return float64(us) / timeScale }

// QuantRSSI converts dBm to the batch encoding's integer centi-dB grid.
func QuantRSSI(dbm float64) int64 { return int64(math.Round(dbm * rssiScale)) }

// UnquantRSSI converts integer centi-dB back to dBm.
func UnquantRSSI(cdb int64) float64 { return float64(cdb) / rssiScale }

// Envelope is the wire frame.
type Envelope struct {
	Type    string          `json:"type"`
	Payload json.RawMessage `json:"payload"`
}

// maxMessage bounds a single message (sanity limit).
const maxMessage = 1 << 20

// envTypeKey and envPayloadKey frame the envelope as WriteMsg writes it
// and splitEnvelope reads it. WriteMsg's output is byte for byte
// json.Marshal(Envelope{msgType, json.Marshal(payload)}): json.Marshal's
// output is already compact and HTML-escaped, so re-compacting it as a
// RawMessage changes nothing. The hot payload types skip reflection on
// both sides (codec.go).
const (
	envTypeKey    = `{"type":`
	envPayloadKey = `,"payload":`
)

// WriteMsg frames one message and writes it with a single Write. A
// msgType that is not valid UTF-8 is rejected: JSON would carry it to
// the peer as a different string.
func WriteMsg(w io.Writer, msgType string, payload any) error {
	if !utf8.ValidString(msgType) {
		return fmt.Errorf("ctlproto: message type %q is not valid UTF-8", msgType)
	}
	fb := framePool.Get().(*[]byte)
	b, err := appendFrame((*fb)[:0], msgType, payload)
	if err == nil {
		_, err = w.Write(b)
	}
	if cap(b) <= maxPooledFrame {
		*fb = b
		framePool.Put(fb)
	}
	return err
}

// ReadMsg reads one framed message. It reads the frame with two
// io.ReadFull calls, so a caller reading a socket should hand it a
// bufio.Reader.
func ReadMsg(r io.Reader) (Envelope, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return Envelope{}, err
	}
	n := binary.BigEndian.Uint32(lenBuf[:])
	if n == 0 || n > maxMessage {
		return Envelope{}, fmt.Errorf("ctlproto: invalid message length %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return Envelope{}, err
	}
	if env, ok := splitEnvelope(buf); ok {
		return env, nil
	}
	var env Envelope
	if err := json.Unmarshal(buf, &env); err != nil {
		return Envelope{}, fmt.Errorf("ctlproto: decoding envelope: %w", err)
	}
	return env, nil
}

// splitEnvelope decodes a body of exactly the shape WriteMsg writes,
// {"type":"T","payload":P}, with T printable ASCII free of '"' and '\'
// and P one valid JSON value with no surrounding whitespace. Such a body
// is an object with exactly those two keys, so json.Unmarshal would
// return the same Envelope; FuzzReadMsgSplit checks that. P is valid
// when it has the canonical shape of T's payload type, else when
// json.Valid says so. Every other body reports false and goes to
// json.Unmarshal. Payload aliases body, which the caller must not
// reuse.
func splitEnvelope(body []byte) (Envelope, bool) {
	rest, ok := bytes.CutPrefix(body, []byte(envTypeKey+`"`))
	if !ok {
		return Envelope{}, false
	}
	end := 0
	for end < len(rest) && rest[end] >= 0x20 && rest[end] < 0x7f && rest[end] != '"' && rest[end] != '\\' {
		end++
	}
	typ := wireType(rest[:end])
	p, ok := bytes.CutPrefix(rest[end:], []byte(`"`+envPayloadKey))
	if !ok {
		return Envelope{}, false
	}
	p, ok = bytes.CutSuffix(p, []byte("}"))
	if !ok || len(p) == 0 || isSpace(p[0]) || isSpace(p[len(p)-1]) {
		return Envelope{}, false
	}
	if !canonicalPayload(typ, p) && !json.Valid(p) {
		return Envelope{}, false
	}
	return Envelope{Type: typ, Payload: p}, true
}

// isSpace reports JSON insignificant whitespace.
func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

// DecodePayload unmarshals an envelope payload into out. The hot types
// take their canonical scanner first; whatever it declines goes to
// json.Unmarshal.
func DecodePayload[T any](env Envelope) (T, error) {
	var out T
	if scanPayload(&out, env.Payload) {
		return out, nil
	}
	return unmarshalPayload[T](env)
}

// unmarshalPayload is DecodePayload's encoding/json path, kept apart so
// the scanned value does not escape.
func unmarshalPayload[T any](env Envelope) (T, error) {
	var out T
	if err := json.Unmarshal(env.Payload, &out); err != nil {
		return out, fmt.Errorf("ctlproto: decoding %s payload: %w", env.Type, err)
	}
	return out, nil
}
