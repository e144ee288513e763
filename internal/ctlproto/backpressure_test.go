package ctlproto

import (
	"fmt"
	"net"
	"testing"
	"time"

	"mobiwlan/internal/core"
	"mobiwlan/internal/obs"
)

// clientOnShard returns a client name that hashes to the given shard.
func clientOnShard(tb testing.TB, want, shards int) string {
	tb.Helper()
	for i := 0; i < 10_000; i++ {
		name := fmt.Sprintf("client-%d", i)
		if shardIndex(name, shards) == want {
			return name
		}
	}
	tb.Fatal("no client name found for shard")
	return ""
}

// waitFor polls cond for up to 5 s.
func waitFor(tb testing.TB, what string, cond func() bool) {
	tb.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			tb.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestBackpressureStalledShardIsolation injects a stalled consumer into
// shard 0 (its coordinator lock is held, so the shard goroutine blocks
// mid-report) and verifies the two halves of the backpressure contract:
// a full measurement round on shard 1 still completes promptly, and the
// flooded session sheds to its queue bound with exact conservation —
// received = processed + dropped — once the pipeline drains.
func TestBackpressureStalledShardIsolation(t *testing.T) {
	reg := obs.NewRegistry()
	coord := &Coordinator{MinInterval: 0.1, Met: NewMetrics(reg, nil)}
	const queueDepth = 4
	srv, err := NewServerConfig("127.0.0.1:0", coord, Config{
		Shards: 2, QueueDepth: queueDepth, SendQueueDepth: 16, Policy: PolicyDrop,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.SetMetrics(coord.Met)

	stallAP, err := Dial(srv.Addr(), "ap-stall")
	if err != nil {
		t.Fatal(err)
	}
	defer stallAP.Close()
	liveAP, err := Dial(srv.Addr(), "ap-live")
	if err != nil {
		t.Fatal(err)
	}
	defer liveAP.Close()
	waitFor(t, "sessions registered", func() bool { return len(srv.APs()) == 2 })
	stallSess := srv.table.Load().byID["ap-stall"]
	liveSess := srv.table.Load().byID["ap-live"]

	clientStalled := clientOnShard(t, 0, 2)
	clientLive := clientOnShard(t, 1, 2)

	// Stall shard 0: its goroutine blocks inside OnMobilityReportInto.
	srv.shards[0].coord.mu.Lock()

	// Flood the stalled shard. Static states: no fan-out when drained.
	const flood = 50
	for i := 0; i < flood; i++ {
		err := sendReport(stallAP, MobilityReport{
			Client: clientStalled, State: core.StateStatic,
			Time: float64(i), RSSIdBm: -60,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "flood received", func() bool { return stallSess.received.Load() == flood })
	if d := stallSess.dropped.Load(); d < flood-queueDepth-1 {
		t.Fatalf("dropped = %d, want >= %d (queue depth %d, one in flight)",
			d, flood-queueDepth-1, queueDepth)
	}

	// With shard 0 wedged, a full measurement round on shard 1 must
	// still complete: trigger from ap-live, answer from ap-stall (its
	// connection and writer are healthy — only its client's shard is
	// stalled), directive back to ap-live.
	err = sendReport(liveAP, MobilityReport{
		Client: clientLive, State: core.StateMacroAway, Time: 100, RSSIdBm: -70,
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case env := <-stallAP.Inbound:
		if env.Type != TypeMeasureRequest {
			t.Fatalf("stalled AP got %q, want measure request", env.Type)
		}
		req, err := DecodePayload[MeasureRequest](env)
		if err != nil {
			t.Fatal(err)
		}
		err = stallAP.ReportMeasurement(MeasureReport{
			Client: req.Client, RSSIdBm: -55, Approaching: true, Time: req.Time + 0.01,
		})
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("measure request did not reach the healthy shard's round")
	}
	select {
	case env := <-liveAP.Inbound:
		if env.Type != TypeRoamDirective {
			t.Fatalf("live AP got %q, want roam directive", env.Type)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stalled shard delayed a round on the healthy shard")
	}
	if liveSess.dropped.Load() != 0 {
		t.Fatalf("healthy session dropped %d reports", liveSess.dropped.Load())
	}

	// Release the stall and drain; conservation must be exact.
	srv.shards[0].coord.mu.Unlock()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	for _, sess := range []*apSession{stallSess, liveSess} {
		recv, proc, drop := sess.received.Load(), sess.processed.Load(), sess.dropped.Load()
		if recv != proc+drop {
			t.Fatalf("%s: received %d != processed %d + dropped %d", sess.id, recv, proc, drop)
		}
	}
	if got, want := liveSess.processed.Load(), liveSess.received.Load(); got != want {
		t.Fatalf("healthy session processed %d of %d", got, want)
	}
	// Global counters agree with the per-session ones.
	recv := reg.Counter("ctlproto.shard.received").Value()
	proc := reg.Counter("ctlproto.shard.processed").Value()
	drop := reg.Counter("ctlproto.shard.dropped").Value()
	if recv != proc+drop {
		t.Fatalf("global conservation: received %d != processed %d + dropped %d", recv, proc, drop)
	}
	if uint64(drop) != stallSess.dropped.Load() {
		t.Fatalf("global dropped %d != stalled session dropped %d", drop, stallSess.dropped.Load())
	}
}

// TestBackpressurePolicyDisconnect pins the alternative overflow policy:
// overflowing the shard queue of a disconnect-policy server drops the
// report AND closes the offending session.
func TestBackpressurePolicyDisconnect(t *testing.T) {
	reg := obs.NewRegistry()
	coord := &Coordinator{MinInterval: 0.1, Met: NewMetrics(reg, nil)}
	srv, err := NewServerConfig("127.0.0.1:0", coord, Config{
		Shards: 1, QueueDepth: 1, Policy: PolicyDisconnect,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.SetMetrics(coord.Met)
	defer srv.Close()

	ap, err := Dial(srv.Addr(), "ap1")
	if err != nil {
		t.Fatal(err)
	}
	defer ap.Close()
	waitFor(t, "session registered", func() bool { return len(srv.APs()) == 1 })
	sess := srv.table.Load().byID["ap1"]

	srv.shards[0].coord.mu.Lock()
	// One report wedges in the shard, one fills the queue, the next
	// overflow disconnects. Sends may start failing once the server
	// closes the conn — that is the success signal, not an error.
	for i := 0; i < 10; i++ {
		if err := sendReport(ap, MobilityReport{
			Client: "c1", State: core.StateStatic, Time: float64(i), RSSIdBm: -60,
		}); err != nil {
			break
		}
	}
	select {
	case _, open := <-ap.Inbound:
		if open {
			t.Fatal("unexpected inbound message")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("overflow under PolicyDisconnect did not close the session")
	}
	srv.shards[0].coord.mu.Unlock()

	waitFor(t, "disconnect counted", func() bool {
		return reg.Counter("ctlproto.disconnects").Value() >= 1
	})
	if sess.dropped.Load() == 0 {
		t.Fatal("disconnect without a counted drop")
	}
}

// TestSendQueueOverflowPolicy drives sendTo's shedding directly: a
// session whose writer is not draining takes SendQueueDepth messages,
// sheds the rest counted, and under PolicyDisconnect is closed.
func TestSendQueueOverflowPolicy(t *testing.T) {
	newSess := func() (*apSession, net.Conn) {
		server, client := net.Pipe()
		return &apSession{
			id:     "ap1",
			conn:   server,
			out:    make(chan outMsg, 2),
			closed: make(chan struct{}),
		}, client
	}

	for _, policy := range []OverflowPolicy{PolicyDrop, PolicyDisconnect} {
		t.Run(policy.String(), func(t *testing.T) {
			reg := obs.NewRegistry()
			s := &Server{cfg: Config{Policy: policy}.withDefaults()}
			s.met.Store(NewMetrics(reg, nil))
			sess, peer := newSess()
			defer peer.Close()
			tab := &sessionTable{ids: []string{"ap1"}, byID: map[string]*apSession{"ap1": sess}}

			for i := 0; i < 5; i++ {
				s.sendTo(tab, "ap1", TypeRoamDirective, RoamDirective{Client: "c1"})
			}
			if got := sess.outDrops.Load(); got != 3 {
				t.Fatalf("outDrops = %d, want 3 (queue depth 2)", got)
			}
			if got := reg.Counter("ctlproto.out.dropped").Value(); got != 3 {
				t.Fatalf("out.dropped counter = %d, want 3", got)
			}
			select {
			case <-sess.closed:
				if policy == PolicyDrop {
					t.Fatal("PolicyDrop closed the session")
				}
			default:
				if policy == PolicyDisconnect {
					t.Fatal("PolicyDisconnect left the session open")
				}
			}
			// Unknown AP: counted nowhere, no panic.
			s.sendTo(tab, "nonexistent", TypeRoamDirective, RoamDirective{})
		})
	}
}
