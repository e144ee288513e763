package ctlproto

import (
	"fmt"
	"testing"

	"mobiwlan/internal/core"
	"mobiwlan/internal/stats"
)

// genReports builds a deterministic stream of quantization-grid reports
// for nClients clients, including exact repeats (which must encode as
// all-zero deltas).
func genReports(seed uint64, n, nClients int) []MobilityReport {
	rng := stats.NewRNG(seed)
	states := []core.State{
		core.StateStatic, core.StateMicro, core.StateMacroAway, core.StateMacroToward,
	}
	out := make([]MobilityReport, 0, n)
	last := make(map[string]MobilityReport)
	for i := 0; i < n; i++ {
		client := fmt.Sprintf("c%02d", rng.Intn(nClients))
		if prev, ok := last[client]; ok && rng.Bool(0.2) {
			// Exact repeat: an empty delta on the wire.
			out = append(out, prev)
			continue
		}
		rep := MobilityReport{
			APID:    "ap1",
			Client:  client,
			State:   states[rng.Intn(len(states))],
			Time:    UnquantTime(int64(rng.Intn(1_000_000_000))),
			RSSIdBm: UnquantRSSI(-9000 + int64(rng.Intn(5000))),
		}
		last[client] = rep
		out = append(out, rep)
	}
	return out
}

// refState is the plain-map reference decoder's per-client state: the
// spec of the delta encoding, written independently of DeltaDecoder.
type refState struct {
	t, r int64
	s    int
}

// refApply is the reference decoder: absolute assignment on snapshots,
// integer addition on deltas, state carry-over on s == 0.
func refApply(m map[string]refState, e BatchEntry) (MobilityReport, bool) {
	st, known := m[e.Client]
	if e.Snap {
		st = refState{t: e.T, r: e.R, s: e.S}
	} else {
		if !known {
			return MobilityReport{}, false
		}
		st.t += e.T
		st.r += e.R
		if e.S != 0 {
			st.s = e.S
		}
	}
	m[e.Client] = st
	return MobilityReport{
		APID:    "ap1",
		Client:  e.Client,
		State:   core.State(st.s - 1),
		Time:    UnquantTime(st.t),
		RSSIdBm: UnquantRSSI(st.r),
	}, true
}

// TestBatchDeltaProperty is the wire-format property test: a batched
// delta/snapshot stream, replayed through both the DeltaDecoder and the
// plain-map reference decoder, reconstructs exactly the state of the
// equivalent full-report stream — table-driven over snapshot intervals
// and batch sizes, with repeats exercising empty deltas.
func TestBatchDeltaProperty(t *testing.T) {
	for _, snap := range []int{1, 2, 5, 16, 1000} {
		for _, batchSize := range []int{1, 3, 64, MaxBatchEntries} {
			t.Run(fmt.Sprintf("snap=%d/batch=%d", snap, batchSize), func(t *testing.T) {
				reports := genReports(42, 600, 7)
				enc := BatchEncoder{APID: "ap1", SnapshotEvery: snap}
				var dec DeltaDecoder
				ref := make(map[string]refState)
				var got []MobilityReport

				drain := func() {
					var b ReportBatch
					if !enc.Flush(&b) {
						return
					}
					if err := CheckBatch(&b); err != nil {
						t.Fatalf("flushed batch invalid: %v", err)
					}
					for i := range b.Entries {
						var rep MobilityReport
						if err := dec.Apply(b.APID, &b.Entries[i], &rep); err != nil {
							t.Fatalf("entry %d: %v", i, err)
						}
						refRep, ok := refApply(ref, b.Entries[i])
						if !ok {
							t.Fatalf("entry %d: reference decoder missing snapshot", i)
						}
						if rep != refRep {
							t.Fatalf("decoder %+v != reference %+v", rep, refRep)
						}
						got = append(got, rep)
					}
				}

				for i := range reports {
					if err := enc.Add(&reports[i]); err != nil {
						t.Fatalf("add %d: %v", i, err)
					}
					if enc.Len() >= batchSize {
						drain()
					}
				}
				drain()

				if len(got) != len(reports) {
					t.Fatalf("reconstructed %d reports, want %d", len(got), len(reports))
				}
				for i := range reports {
					if got[i] != reports[i] {
						t.Fatalf("report %d: reconstructed %+v != original %+v", i, got[i], reports[i])
					}
				}
			})
		}
	}
}

// TestBatchReorderWithinBatch pins the commutation contract: entries
// for distinct clients may be reordered freely inside one batch (the
// sharded server routes them to per-shard queues), as long as each
// client's own entries keep their relative order. Final per-client
// state must not change.
func TestBatchReorderWithinBatch(t *testing.T) {
	reports := genReports(7, 400, 5)
	enc := BatchEncoder{APID: "ap1", SnapshotEvery: 4}
	var decA, decB DeltaDecoder
	var out MobilityReport
	apply := func(dec *DeltaDecoder, entries []BatchEntry) {
		t.Helper()
		for i := range entries {
			if err := dec.Apply("ap1", &entries[i], &out); err != nil {
				t.Fatalf("apply entry %d: %v", i, err)
			}
		}
	}
	var batch ReportBatch
	reordered := 0
	flush := func() {
		if !enc.Flush(&batch) {
			return
		}
		apply(&decA, batch.Entries)
		perm := reorderByClient(batch.Entries)
		apply(&decB, perm)
		for i := range perm {
			if perm[i] != batch.Entries[i] {
				reordered++
				break
			}
		}
	}
	for i := range reports {
		if err := enc.Add(&reports[i]); err != nil {
			t.Fatal(err)
		}
		if enc.Len() >= 32 {
			flush()
		}
	}
	flush()
	if reordered == 0 {
		t.Fatal("no batch was actually reordered; test is vacuous")
	}
	if len(decA.clients) != len(decB.clients) {
		t.Fatalf("client tables diverged: %d vs %d", len(decA.clients), len(decB.clients))
	}
	for c, sa := range decA.clients {
		sb := decB.clients[c]
		if sb == nil || *sa != *sb {
			t.Fatalf("client %s: in-order state %+v != reordered state %+v", c, sa, sb)
		}
	}
}

// reorderByClient interleaves a batch's entries client-by-client in
// reverse client order, preserving each client's internal order — a
// legal reordering under the commutation contract.
func reorderByClient(entries []BatchEntry) []BatchEntry {
	var clients []string
	byClient := map[string][]BatchEntry{}
	for _, e := range entries {
		if _, ok := byClient[e.Client]; !ok {
			clients = append(clients, e.Client)
		}
		byClient[e.Client] = append(byClient[e.Client], e)
	}
	out := make([]BatchEntry, 0, len(entries))
	for i := len(clients) - 1; i >= 0; i-- {
		out = append(out, byClient[clients[i]]...)
	}
	return out
}

// TestBatchEmptyDeltas checks that exact repeats encode as all-zero
// deltas (the bandwidth win the format exists for) and still replay.
func TestBatchEmptyDeltas(t *testing.T) {
	rep := MobilityReport{APID: "ap1", Client: "c1", State: core.StateStatic, Time: 1.5, RSSIdBm: -60}
	enc := BatchEncoder{APID: "ap1", SnapshotEvery: 100}
	for i := 0; i < 4; i++ {
		if err := enc.Add(&rep); err != nil {
			t.Fatal(err)
		}
	}
	var b ReportBatch
	if !enc.Flush(&b) {
		t.Fatal("flush returned empty")
	}
	if len(b.Entries) != 4 {
		t.Fatalf("entries = %d, want 4", len(b.Entries))
	}
	if !b.Entries[0].Snap {
		t.Fatal("first entry must be a snapshot")
	}
	for i, e := range b.Entries[1:] {
		if e.Snap || e.S != 0 || e.T != 0 || e.R != 0 {
			t.Fatalf("repeat entry %d not an empty delta: %+v", i+1, e)
		}
	}
	var dec DeltaDecoder
	for i := range b.Entries {
		var out MobilityReport
		if err := dec.Apply(b.APID, &b.Entries[i], &out); err != nil {
			t.Fatal(err)
		}
		if out != rep {
			t.Fatalf("entry %d: %+v != %+v", i, out, rep)
		}
	}
}

// TestDeltaDecoderValidation drives every rejection path: the decoder
// must refuse adversarial entries before storing anything, per the
// csi.NewMatrix validate-before-allocate discipline.
func TestDeltaDecoderValidation(t *testing.T) {
	longID := make([]byte, MaxIDLen+1)
	for i := range longID {
		longID[i] = 'x'
	}
	var dec DeltaDecoder
	var out MobilityReport
	cases := []struct {
		name  string
		entry BatchEntry
		want  error
	}{
		{"empty client", BatchEntry{Snap: true, S: 1}, ErrEmptyID},
		{"long client", BatchEntry{Client: string(longID), Snap: true, S: 1}, ErrIDTooLong},
		{"snapshot state 0", BatchEntry{Client: "c", Snap: true, S: 0}, ErrBadState},
		{"snapshot state huge", BatchEntry{Client: "c", Snap: true, S: MaxStateCode + 1}, ErrBadState},
		{"delta unknown client", BatchEntry{Client: "never-snapped", T: 1}, ErrUnknownClient},
	}
	for _, tc := range cases {
		if err := dec.Apply("ap1", &tc.entry, &out); err != tc.want {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
	if dec.Clients() != 0 {
		t.Fatalf("rejected entries grew the client table to %d", dec.Clients())
	}

	// Delta state validation needs a known client: snapshot, then a delta
	// carrying an out-of-range state code.
	snap := BatchEntry{Client: "c", Snap: true, S: 1}
	if err := dec.Apply("ap1", &snap, &out); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []int{-1, MaxStateCode + 1} {
		e := BatchEntry{Client: "c", S: bad}
		if err := dec.Apply("ap1", &e, &out); err != ErrBadState {
			t.Errorf("delta state %d: err = %v, want ErrBadState", bad, err)
		}
	}

	// Client-table bound: MaxClients snapshots fit, one more is refused.
	bounded := DeltaDecoder{MaxClients: 2}
	for i, c := range []string{"a", "b"} {
		e := BatchEntry{Client: c, Snap: true, S: 1, T: int64(i)}
		if err := bounded.Apply("ap1", &e, &out); err != nil {
			t.Fatal(err)
		}
	}
	e := BatchEntry{Client: "c", Snap: true, S: 1}
	if err := bounded.Apply("ap1", &e, &out); err != ErrTooManyClients {
		t.Fatalf("table overflow err = %v, want ErrTooManyClients", err)
	}
	if bounded.Clients() != 2 {
		t.Fatalf("client table = %d, want 2", bounded.Clients())
	}
	// A known client still updates after the table filled.
	e = BatchEntry{Client: "a", T: 5, R: -3}
	if err := bounded.Apply("ap1", &e, &out); err != nil {
		t.Fatalf("delta for known client after fill: %v", err)
	}
}

// TestCheckBatch drives the frame-level bounds.
func TestCheckBatch(t *testing.T) {
	long := make([]byte, MaxIDLen+1)
	for i := range long {
		long[i] = 'a'
	}
	if err := CheckBatch(&ReportBatch{APID: ""}); err != ErrEmptyID {
		t.Fatalf("empty AP: %v", err)
	}
	if err := CheckBatch(&ReportBatch{APID: string(long)}); err != ErrIDTooLong {
		t.Fatalf("long AP: %v", err)
	}
	b := ReportBatch{APID: "ap1", Entries: make([]BatchEntry, MaxBatchEntries+1)}
	if err := CheckBatch(&b); err != ErrTooManyEntries {
		t.Fatalf("oversized batch: %v", err)
	}
	b.Entries = b.Entries[:MaxBatchEntries]
	if err := CheckBatch(&b); err != nil {
		t.Fatalf("max-size batch rejected: %v", err)
	}
}

// TestBatchEncoderLimits pins the encoder-side guards.
func TestBatchEncoderLimits(t *testing.T) {
	var enc BatchEncoder
	rep := MobilityReport{Client: ""}
	if err := enc.Add(&rep); err != ErrEmptyID {
		t.Fatalf("empty client: %v", err)
	}
	long := make([]byte, MaxIDLen+1)
	for i := range long {
		long[i] = 'c'
	}
	rep.Client = string(long)
	if err := enc.Add(&rep); err != ErrIDTooLong {
		t.Fatalf("long client: %v", err)
	}
	rep.Client = "c1"
	for i := 0; i < MaxBatchEntries; i++ {
		rep.Time = float64(i)
		if err := enc.Add(&rep); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Add(&rep); err != ErrTooManyEntries {
		t.Fatalf("full buffer: %v, want ErrTooManyEntries", err)
	}
	var b ReportBatch
	if !enc.Flush(&b) || len(b.Entries) != MaxBatchEntries {
		t.Fatalf("flush after fill: %d entries", len(b.Entries))
	}
	if enc.Len() != 0 {
		t.Fatalf("Len after flush = %d", enc.Len())
	}
	if enc.Flush(&b) {
		t.Fatal("second flush should report empty")
	}
	// Sequence numbers advance per flushed batch.
	if err := enc.Add(&rep); err != nil {
		t.Fatal(err)
	}
	var b2 ReportBatch
	enc.Flush(&b2)
	if b2.Seq != b.Seq+1 {
		t.Fatalf("seq %d after %d, want +1", b2.Seq, b.Seq)
	}
}
