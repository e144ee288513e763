package sim

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"mobiwlan/internal/geom"
	"mobiwlan/internal/obs"
	"mobiwlan/internal/roaming"
	"mobiwlan/internal/scenario"
	"mobiwlan/internal/stats"
	"mobiwlan/internal/transport"
)

// checkContendConservation asserts the shared-medium conservation laws on
// a fleet result: per contention domain, the members' exclusive airtime
// plus the collided seconds equals the busy seconds, and the busy seconds
// never exceed the run's elapsed time (duration plus at most one frame
// that started before the cutoff); per client and fleet-wide, offered
// MPDUs reconcile exactly with delivered plus the three loss causes.
func checkContendConservation(t *testing.T, res FleetResult, duration float64) {
	t.Helper()
	cs := res.Contend
	if cs == nil {
		t.Fatal("contended run returned no ContendStats")
	}
	const maxFrame = 0.05 // well above any A-MPDU airtime plus backoff
	for d, ds := range cs.Domains {
		var air float64
		for _, b := range ds.BSS {
			air += cs.BSS[b].AirtimeS
		}
		if math.Abs(air+ds.CollisionS-ds.BusyS) > 1e-9 {
			t.Errorf("domain %d: airtime %v + collided %v != busy %v",
				d, air, ds.CollisionS, ds.BusyS)
		}
		if ds.BusyS > duration+maxFrame {
			t.Errorf("domain %d: busy %v s exceeds elapsed %v s", d, ds.BusyS, duration)
		}
	}
	var sum MPDUCounts
	for i, m := range cs.PerClient {
		if m.Offered != m.Delivered+m.PERLost+m.CollisionLost+m.OBSSLost {
			t.Errorf("client %d: %d offered != %d delivered + %d per + %d collision + %d obss",
				i, m.Offered, m.Delivered, m.PERLost, m.CollisionLost, m.OBSSLost)
		}
		sum.Offered += m.Offered
		sum.Delivered += m.Delivered
		sum.PERLost += m.PERLost
		sum.CollisionLost += m.CollisionLost
		sum.OBSSLost += m.OBSSLost
	}
	if sum != cs.MPDU {
		t.Errorf("fleet MPDU totals %+v != per-client sum %+v", cs.MPDU, sum)
	}
}

// TestContendedSingleClientMatchesRunWLAN is the regression pin behind the
// whole refactor: one client on an idle shared medium must reproduce the
// uncontended RunWLAN bit for bit — immediate grants add no time, and the
// medium RNG split draws nothing without contention or OBSS overlap.
func TestContendedSingleClientMatchesRunWLAN(t *testing.T) {
	for _, aware := range []bool{false, true} {
		opt := FleetOptions{
			Clients:     1,
			MotionAware: aware,
			Duration:    4,
			Contend:     true,
			Plan:        roaming.DefaultPlan(),
		}
		res := RunWLANFleet(opt, 11)

		plan, _ := contendPlan(opt)
		clients, err := scenario.Build(scenario.RoundRobin(1, opt.Duration, aware), plan.APs, 11)
		if err != nil {
			t.Fatal(err)
		}
		s := fleetSetups(clients, opt, plan)[0]
		want := RunWLAN(s.scen, s.w, s.seed)

		got := res.PerClient[0].WLANResult
		if got != want {
			t.Errorf("aware=%v: contended single client %+v != uncontended RunWLAN %+v",
				aware, got, want)
		}
		cs := res.Contend
		if cs.MPDU.CollisionLost != 0 || cs.MPDU.OBSSLost != 0 {
			t.Errorf("aware=%v: idle medium reported contention losses: %+v", aware, cs.MPDU)
		}
		checkContendConservation(t, res, opt.Duration)
	}
}

// TestContendedOBSSLoss pins the interference path end to end: two
// co-channel APs just outside carrier-sense range run one saturated
// client each; the domains never defer each other, so the only
// cross-domain coupling is OBSS interference — which must produce losses.
func TestContendedOBSSLoss(t *testing.T) {
	opt := FleetOptions{
		Clients:     2,
		MotionAware: true,
		Duration:    2,
		Contend:     true,
		Plan: roaming.Plan{
			APs:     []geom.Point{geom.Pt(10, 15), geom.Pt(22, 15)},
			Channel: roaming.DefaultPlan().Channel,
		},
		NumChannels: 1,
		CSRangeM:    10,
	}
	res := RunWLANFleet(opt, 7)
	cs := res.Contend
	if len(cs.Domains) != 2 {
		t.Fatalf("out-of-CS-range co-channel APs share a domain: %+v", cs.Domains)
	}
	if cs.MPDU.OBSSLost == 0 {
		t.Errorf("overlapping co-channel domains produced no OBSS losses: %+v", cs.MPDU)
	}
	if cs.MPDU.CollisionLost != 0 {
		t.Errorf("separate domains produced collisions: %+v", cs.MPDU)
	}
	checkContendConservation(t, res, opt.Duration)
}

// TestContendedCollisions pins the contention path: saturated clients on
// one single-AP channel must collide, and collided frames must be charged
// to the collision loss bucket.
func TestContendedCollisions(t *testing.T) {
	opt := FleetOptions{
		Clients:     3,
		MotionAware: true,
		Duration:    2,
		Contend:     true,
		Plan: roaming.Plan{
			APs:     []geom.Point{geom.Pt(25, 15)},
			Channel: roaming.DefaultPlan().Channel,
		},
		NumChannels: 1,
	}
	res := RunWLANFleet(opt, 5)
	cs := res.Contend
	if cs.MPDU.CollisionLost == 0 {
		t.Errorf("3 saturated clients on one channel never collided: %+v", cs.MPDU)
	}
	if cs.BSS[0].Deferrals == 0 {
		t.Errorf("3 saturated clients on one channel never deferred: %+v", cs.BSS[0])
	}
	if cs.MPDU.OBSSLost != 0 {
		t.Errorf("single BSS produced OBSS losses: %+v", cs.MPDU)
	}
	checkContendConservation(t, res, opt.Duration)
}

// TestContendedFleetDeterminism is the property suite: across seeded
// random configurations (fleet size, AP count, channel plan, CS range,
// AP subsetting, protocol stack), a contended run must be byte-identical
// — compared field for field, including every medium counter — across
// Jobs 1, 2, and 8 and across repeats, and every run must satisfy the
// medium's conservation laws.
func TestContendedFleetDeterminism(t *testing.T) {
	configs := 50
	if testing.Short() {
		configs = 10
	}
	rng := stats.NewRNG(2026)
	for ci := 0; ci < configs; ci++ {
		opt := FleetOptions{
			Clients:     2 + rng.Intn(3),
			MotionAware: rng.Bool(0.5),
			Duration:    0.4 + 0.2*rng.Float64(),
			Contend:     true,
			APs:         1 + rng.Intn(8),
			NumChannels: 1 + rng.Intn(3),
			CSRangeM:    8 + 30*rng.Float64(),
			MaxAPs:      rng.Intn(4), // 0 disables subsetting
		}
		seed := rng.Uint64()

		ref := RunWLANFleet(opt, seed)
		checkContendConservation(t, ref, opt.Duration)
		for _, jobs := range []int{1, 2, 8} {
			o := opt
			o.Jobs = jobs
			got := RunWLANFleet(o, seed)
			if !reflect.DeepEqual(ref, got) {
				t.Fatalf("config %d (%+v seed %d): jobs=%d diverged from reference",
					ci, opt, seed, jobs)
			}
		}
		if t.Failed() {
			t.Fatalf("config %d (%+v seed %d) failed conservation", ci, opt, seed)
		}
	}
}

// TestContendedFleetParallelDense drives a dense cell through the
// parallel event loop — 48 clients on 12 APs over 3 channels, each
// simulating its 3 nearest APs, with telemetry attached — and requires
// the fleet result, the text and JSON metric dumps and the merged trace
// to be byte-identical at Jobs 1, 2 and 8. Several contention domains
// keep several client steps in flight at once, so under -race this is
// the check that a stepped client is touched by one goroutine at a time.
func TestContendedFleetParallelDense(t *testing.T) {
	run := func(jobs int) (res FleetResult, text, jsonDump, trace string) {
		scope := obs.NewScope(256)
		opt := FleetOptions{
			Clients:     48,
			Jobs:        jobs,
			MotionAware: true,
			Duration:    1,
			Obs:         scope,
			Contend:     true,
			APs:         12,
			NumChannels: 3,
			MaxAPs:      3,
		}
		res = RunWLANFleet(opt, 12)
		var tb, jb, rb strings.Builder
		if err := scope.Reg.WriteText(&tb); err != nil {
			t.Fatal(err)
		}
		if err := scope.Reg.WriteJSON(&jb); err != nil {
			t.Fatal(err)
		}
		if err := scope.Trials.WriteJSONL(&rb); err != nil {
			t.Fatal(err)
		}
		return res, tb.String(), jb.String(), rb.String()
	}
	ref, text, jsonDump, trace := run(1)
	checkContendConservation(t, ref, 1)
	if len(ref.Contend.Domains) < 2 {
		t.Fatalf("dense cell has %d contention domain(s); want several so steps overlap", len(ref.Contend.Domains))
	}
	if !strings.Contains(text, "counter medium.mpdu.offered") || trace == "" {
		t.Fatalf("telemetry missing: %d-byte trace, text dump:\n%s", len(trace), text)
	}
	for _, jobs := range []int{2, 8} {
		res, text2, json2, trace2 := run(jobs)
		if !reflect.DeepEqual(ref, res) {
			t.Errorf("jobs=%d: fleet result diverged from jobs=1", jobs)
		}
		if text2 != text {
			t.Errorf("jobs=%d: text metrics dump differs from jobs=1", jobs)
		}
		if json2 != jsonDump {
			t.Errorf("jobs=%d: JSON metrics dump differs from jobs=1", jobs)
		}
		if trace2 != trace {
			t.Errorf("jobs=%d: merged JSONL trace differs from jobs=1", jobs)
		}
	}
}

// panicSource is a saturated source whose delivery callback panics once
// sim-time passes at, so the panic fires inside a client step.
type panicSource struct {
	transport.Saturated
	at float64
}

func (p panicSource) OnDelivery(t float64, _, _ int, _ bool) {
	if t > p.at {
		panic("step exploded")
	}
}

// TestContendedStepPanicPropagates requires a panicking client step to
// surface on the caller's goroutine at every Jobs value — whether a
// worker or the coordinator ran the step — without deadlocking the
// event loop.
func TestContendedStepPanicPropagates(t *testing.T) {
	opt := FleetOptions{Clients: 8, MotionAware: true, Duration: 1, Contend: true, APs: 4, MaxAPs: 2}
	for _, jobs := range []int{1, 2, 8} {
		opt.Jobs = jobs
		plan, channels := contendPlan(opt)
		clients, err := scenario.Build(scenario.RoundRobin(opt.Clients, opt.Duration, opt.MotionAware), plan.APs, 3)
		if err != nil {
			t.Fatal(err)
		}
		setups := fleetSetups(clients, opt, plan)
		setups[5].w.Source = panicSource{at: 0.3}
		done := make(chan any, 1)
		go func() {
			defer func() { done <- recover() }()
			runContendedSetups(opt, plan, channels, setups)
		}()
		select {
		case r := <-done:
			if r != "step exploded" {
				t.Fatalf("jobs=%d: recovered %v, want the step's panic", jobs, r)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("jobs=%d: event loop deadlocked after a step panic", jobs)
		}
	}
}
