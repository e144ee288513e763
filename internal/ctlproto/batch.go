package ctlproto

import (
	"errors"

	"mobiwlan/internal/core"
)

// Batch encode/decode, the one wire path of mobility reports. The
// encoder turns a stream of MobilityReports into snapshot/delta
// BatchEntries; the decoder mirrors it, reconstructing full reports.
// Both sides keep per-client integer state on the fixed-point grid
// (QuantTime/QuantRSSI), so the decoder reconstructs exactly the
// encoder's input for any report already on the grid.

// Sentinel errors of the batch decoder. Values, not formatted strings:
// the decode path is allocation-free and the callers only branch on
// them (or count them), never interpolate.
var (
	// ErrTooManyEntries rejects a batch with more than MaxBatchEntries.
	ErrTooManyEntries = errors.New("ctlproto: batch entry count exceeds limit")
	// ErrIDTooLong rejects an AP or client identifier over MaxIDLen.
	ErrIDTooLong = errors.New("ctlproto: identifier exceeds length limit")
	// ErrEmptyID rejects an empty AP or client identifier.
	ErrEmptyID = errors.New("ctlproto: empty identifier")
	// ErrBadState rejects a state code outside [1, MaxStateCode] on a
	// snapshot or [0, MaxStateCode] on a delta.
	ErrBadState = errors.New("ctlproto: state code out of range")
	// ErrUnknownClient rejects a delta for a client with no prior
	// snapshot (e.g. after a decoder reset or a dropped snapshot).
	ErrUnknownClient = errors.New("ctlproto: delta for client without snapshot")
	// ErrTooManyClients rejects a snapshot that would grow the decoder's
	// client table beyond its bound.
	ErrTooManyClients = errors.New("ctlproto: client table full")
)

// DefaultSnapshotEvery is the encoder's default snapshot interval: a
// client's state is re-sent absolute after this many deltas.
const DefaultSnapshotEvery = 16

// DefaultMaxClients bounds a DeltaDecoder's per-session client table
// when MaxClients is zero.
const DefaultMaxClients = 4096

// BatchEncoder builds ReportBatches from a stream of MobilityReports.
// It mirrors the DeltaDecoder's state: for each client it remembers the
// last quantized values sent, emits a snapshot on first sight (and
// every SnapshotEvery entries after), and exact integer deltas in
// between. Not safe for concurrent use; one encoder per AP connection.
type BatchEncoder struct {
	// APID stamps the batches.
	APID string
	// SnapshotEvery is the per-client snapshot interval in entries;
	// 1 makes every entry a snapshot, 0 means DefaultSnapshotEvery.
	SnapshotEvery int

	seq     uint64
	clients map[string]*encClientState
	entries []BatchEntry
}

type encClientState struct {
	t         int64
	r         int64
	s         int
	sinceSnap int
}

// Add appends one report to the pending batch, choosing snapshot or
// delta encoding. It returns ErrTooManyEntries when the pending batch
// is full (Flush and retry) and validation errors for oversized IDs.
func (e *BatchEncoder) Add(rep *MobilityReport) error {
	if len(rep.Client) == 0 {
		return ErrEmptyID
	}
	if len(rep.Client) > MaxIDLen {
		return ErrIDTooLong
	}
	if len(e.entries) >= MaxBatchEntries {
		return ErrTooManyEntries
	}
	if e.clients == nil {
		e.clients = make(map[string]*encClientState)
	}
	every := e.SnapshotEvery
	if every <= 0 {
		every = DefaultSnapshotEvery
	}
	t := QuantTime(rep.Time)
	r := QuantRSSI(rep.RSSIdBm)
	s := int(rep.State) + 1
	st := e.clients[rep.Client]
	if st == nil {
		st = &encClientState{}
		e.clients[rep.Client] = st
		st.sinceSnap = every // force a snapshot on first sight
	}
	if st.sinceSnap >= every {
		e.entries = append(e.entries, BatchEntry{
			Client: rep.Client, Snap: true, S: s, T: t, R: r,
		})
		st.t, st.r, st.s, st.sinceSnap = t, r, s, 1
		return nil
	}
	ds := 0
	if s != st.s {
		ds = s
	}
	e.entries = append(e.entries, BatchEntry{
		Client: rep.Client, S: ds, T: t - st.t, R: r - st.r,
	})
	st.t, st.r, st.s = t, r, s
	st.sinceSnap++
	return nil
}

// Len reports the number of pending entries.
func (e *BatchEncoder) Len() int { return len(e.entries) }

// Flush moves the pending entries into out (reusing out's entry buffer)
// and stamps APID and the next sequence number. It reports false, and
// leaves out alone, when nothing is pending.
func (e *BatchEncoder) Flush(out *ReportBatch) bool {
	if len(e.entries) == 0 {
		return false
	}
	out.APID = e.APID
	out.Seq = e.seq
	e.seq++
	out.Entries = append(out.Entries[:0], e.entries...)
	e.entries = e.entries[:0]
	return true
}

// CheckBatch validates a decoded ReportBatch's frame-level bounds
// before any entry is applied, per the csi.NewMatrix discipline:
// adversarial lengths are rejected up front, never sized into buffers.
func CheckBatch(b *ReportBatch) error {
	if len(b.APID) == 0 {
		return ErrEmptyID
	}
	if len(b.APID) > MaxIDLen {
		return ErrIDTooLong
	}
	if len(b.Entries) > MaxBatchEntries {
		return ErrTooManyEntries
	}
	return nil
}

// DeltaDecoder reconstructs MobilityReports from BatchEntries. One
// decoder per AP session; not safe for concurrent use. Entry validation
// happens before any state is stored, and the client table is bounded
// by MaxClients, so adversarial input cannot over-allocate.
type DeltaDecoder struct {
	// MaxClients bounds the per-session client table; 0 means
	// DefaultMaxClients.
	MaxClients int

	clients map[string]*decClientState
}

type decClientState struct {
	t int64
	r int64
	s int
}

// Apply decodes one entry into out, updating the per-client state.
// On error out is untouched and, except for ErrUnknownClient (which
// only proves a snapshot was missed), so is the decoder state.
//
//mobilint:hotpath
func (d *DeltaDecoder) Apply(apID string, e *BatchEntry, out *MobilityReport) error {
	if len(e.Client) == 0 {
		return ErrEmptyID
	}
	if len(e.Client) > MaxIDLen {
		return ErrIDTooLong
	}
	st := d.clients[e.Client]
	if e.Snap {
		if e.S < 1 || e.S > MaxStateCode {
			return ErrBadState
		}
		if st == nil {
			//mobilint:coldstart — first snapshot for this client
			maxClients := d.MaxClients
			if maxClients <= 0 {
				maxClients = DefaultMaxClients
			}
			if len(d.clients) >= maxClients {
				return ErrTooManyClients
			}
			if d.clients == nil {
				d.clients = make(map[string]*decClientState)
			}
			st = &decClientState{}
			d.clients[e.Client] = st
		}
		st.t, st.r, st.s = e.T, e.R, e.S
	} else {
		if st == nil {
			return ErrUnknownClient
		}
		if e.S < 0 || e.S > MaxStateCode {
			return ErrBadState
		}
		st.t += e.T
		st.r += e.R
		if e.S != 0 {
			st.s = e.S
		}
	}
	out.APID = apID
	out.Client = e.Client
	out.State = stateFromCode(st.s)
	out.Time = UnquantTime(st.t)
	out.RSSIdBm = UnquantRSSI(st.r)
	return nil
}

// stateFromCode undoes the +1 bias of BatchEntry.S.
func stateFromCode(s int) core.State { return core.State(s - 1) }

// Clients reports the size of the decoder's client table.
func (d *DeltaDecoder) Clients() int { return len(d.clients) }
