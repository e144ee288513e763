package experiments

import (
	"fmt"

	"mobiwlan/internal/channel"
	"mobiwlan/internal/geom"
	"mobiwlan/internal/roaming"
	"mobiwlan/internal/sim"
)

func init() {
	register("cont1ap", Contention1AP)
	register("obss2ap", ContentionOBSS)
}

// contPlan builds a small fixed AP deployment for the contention
// scenarios, with the Fig. 13 floor's radio configuration.
func contPlan(aps ...geom.Point) roaming.Plan {
	cfg := channel.DefaultConfig()
	cfg.TxPowerDBm = 5
	return roaming.Plan{APs: aps, Channel: cfg}
}

// runContention runs a contended fleet and renders its canonical
// accounting: per-client goodput, per-BSS contention counters, and the
// fleet MPDU reconciliation (offered = delivered + PER + collision +
// OBSS), which is the conservation law the golden trace pins.
func runContention(cfg Config, id, title string, opt sim.FleetOptions) Result {
	opt.Obs = cfg.Obs
	opt.TrialBase = trialsContend
	opt.Jobs = cfg.jobs() // steps clients in parallel; output is identical at any value
	res := sim.RunWLANFleet(opt, cfg.Seed)

	rows := make([][2]string, 0, opt.Clients+len(opt.Plan.APs)+4)
	for _, c := range res.PerClient {
		rows = append(rows, [2]string{
			fmt.Sprintf("client %d (%s)", c.Client, c.Mode),
			fmt.Sprintf("%.2f Mbps, %d handoffs, %d scans", c.Mbps, c.Handoffs, c.Scans),
		})
	}
	cs := res.Contend
	for b, s := range cs.BSS {
		rows = append(rows, [2]string{
			fmt.Sprintf("bss %d (ch %d, dom %d)", b, s.Channel, s.Domain),
			fmt.Sprintf("%d frames, %d collisions, %d deferrals, %.4f s airtime",
				s.Frames, s.Collisions, s.Deferrals, s.AirtimeS),
		})
	}
	for d, s := range cs.Domains {
		rows = append(rows, [2]string{
			fmt.Sprintf("domain %d (ch %d)", d, s.Channel),
			fmt.Sprintf("%.4f s busy, %.4f s collided, %d collision rounds",
				s.BusyS, s.CollisionS, s.Collisions),
		})
	}
	m := cs.MPDU
	rows = append(rows, [2]string{
		"mpdus",
		fmt.Sprintf("%d offered = %d delivered + %d per + %d collision + %d obss",
			m.Offered, m.Delivered, m.PERLost, m.CollisionLost, m.OBSSLost),
	})

	res2 := Result{ID: id, Title: title, XLabel: "n/a"}
	res2.Text = renderKV(title, rows)
	res2.Notes = append(res2.Notes, fmt.Sprintf(
		"fleet mean %.2f Mbps over %d contending clients", res.MeanMbps, opt.Clients))
	return res2
}

// Contention1AP pins the pure-contention scenario: two saturated clients
// sharing one AP's channel. Every loss beyond the PER model is a backoff
// collision; there is no OBSS term because a single BSS has no co-channel
// neighbor.
func Contention1AP(cfg Config) Result {
	opt := sim.FleetOptions{
		Clients:     2,
		MotionAware: true,
		Duration:    cfg.scaleDur(10, 2),
		Contend:     true,
		Plan:        contPlan(geom.Pt(25, 15)),
		NumChannels: 1,
	}
	return runContention(cfg, "cont1ap",
		"Contention: 2 saturated clients, 1 AP, 1 channel", opt)
}

// ContentionOBSS pins the OBSS scenario: two co-channel APs placed just
// outside each other's carrier-sense range, one client homed to each.
// The two BSSs form separate contention domains that transmit
// concurrently, so each client's frames are degraded by the other AP's
// interference — the obss term of the MPDU reconciliation is the headline.
func ContentionOBSS(cfg Config) Result {
	opt := sim.FleetOptions{
		Clients:     2,
		MotionAware: true,
		Duration:    cfg.scaleDur(10, 2),
		Contend:     true,
		Plan:        contPlan(geom.Pt(10, 15), geom.Pt(22, 15)),
		NumChannels: 1,
		CSRangeM:    10,
	}
	return runContention(cfg, "obss2ap",
		"OBSS: 2 co-channel APs out of carrier-sense range, 1 client each", opt)
}
