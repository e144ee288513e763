// Controller: the paper's §3.1 coordination running over a real TCP
// control plane. Three simulated APs watch the same walking client; each
// runs the PHY-layer classifier over its own channel to the client and
// streams mobility reports to the controller. When the serving AP reports
// macro-away motion, the controller collects NULL-frame measurements from
// the neighbors and — if one is stronger and being approached — orders
// the serving AP to disassociate the client.
//
//	go run ./examples/controller
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"mobiwlan/internal/channel"
	"mobiwlan/internal/core"
	"mobiwlan/internal/ctlproto"
	"mobiwlan/internal/geom"
	"mobiwlan/internal/mobility"
	"mobiwlan/internal/obs"
	"mobiwlan/internal/stats"
	"mobiwlan/internal/tof"
)

//mobilint:stdout example walkthroughs narrate their results on stdout
func main() {
	const duration = 20.0

	// The client walks from AP a1's cell toward AP a2's.
	cfg := mobility.DefaultSceneConfig()
	cfg.Duration = duration
	scen := mobility.NewScenario(mobility.Static, cfg, stats.NewRNG(3))
	scen.Label = mobility.Macro
	scen.Client = mobility.WaypointWalk{
		Path:  geom.NewPath(geom.Pt(9, 8), geom.Pt(40, 8)),
		Speed: 1.4,
	}

	apPos := map[string]geom.Point{
		"a1": geom.Pt(8, 7), "a2": geom.Pt(25, 7), "a3": geom.Pt(42, 7),
	}
	chCfg := channel.DefaultConfig()
	chCfg.TxPowerDBm = 5

	// Control-plane telemetry: RPC counters, decision latency and the
	// connection-ordered event trace, dumped to stderr at exit.
	reg := obs.NewRegistry()
	met := ctlproto.NewMetrics(reg, obs.NewSyncTracer(1024))

	coord := ctlproto.NewCoordinator()
	coord.Met = met
	srv, err := ctlproto.NewServer("127.0.0.1:0", coord)
	if err != nil {
		log.Fatal(err)
	}
	srv.SetMetrics(met)
	defer srv.Close()
	defer func() {
		fmt.Fprintln(os.Stderr, "\ncontrol-plane metrics:")
		if err := reg.WriteText(os.Stderr); err != nil {
			fmt.Fprintln(os.Stderr, "metrics dump:", err)
		}
	}()
	fmt.Printf("controller listening on %s\n\n", srv.Addr())

	const client = "aa:bb:cc:00:11:22"
	roamed := make(chan string, 1)

	// Each AP: classifier over its channel, reports every second,
	// answers measurement requests, executes roam directives.
	for id, pos := range apPos {
		id, pos := id, pos
		go func() {
			rng := stats.NewRNG(uint64(pos.X*1000 + pos.Y))
			link := channel.NewAt(chCfg, pos, scen, rng.Split(1))
			meter := tof.NewMeter(tof.DefaultConfig(), rng.Split(2))
			cls := core.New(core.DefaultConfig())
			trend := tof.NewTrendDetector(3, 0, 0.8)
			var filter stats.MedianFilter

			conn, err := ctlproto.Dial(srv.Addr(), id)
			if err != nil {
				log.Fatal(err)
			}
			defer conn.Close()

			serving := id == "a1" // the client associates with a1 at start
			nextCSI, nextToF, nextReport, lastFlush := 0.0, 0.0, 1.0, 0.0
			for t := 0.0; t < duration; t += 0.01 {
				// Pace the simulated clock (~20x real time) so the TCP
				// control plane keeps up with the radio plane.
				time.Sleep(500 * time.Microsecond)
				if serving && t >= nextCSI {
					cls.ObserveCSI(t, link.Measure(t).CSI)
					nextCSI += cls.Config().CSISamplePeriod
				}
				if t >= nextToF {
					if serving && cls.ToFActive() {
						cls.ObserveToF(t, meter.Raw(link.Distance(t)))
					}
					filter.Add(meter.Raw(link.Distance(t)))
					nextToF += tof.SampleInterval
				}
				if t-lastFlush >= 1 {
					lastFlush = t
					if med, ok := filter.Flush(); ok {
						trend.Push(med)
					}
				}
				if serving && t >= nextReport {
					nextReport = t + 1
					rssi := link.Measure(t).RSSIdBm
					fmt.Printf("t=%4.1fs  %s reports client %s (%.0f dBm)\n",
						t, id, cls.State(), rssi)
					if err := conn.ReportMobility(ctlproto.MobilityReport{
						Client:  client,
						State:   cls.State(),
						Time:    t,
						RSSIdBm: rssi,
					}); err != nil {
						fmt.Fprintf(os.Stderr, "%s: mobility report: %v\n", id, err)
					}
				}
				// Handle controller messages without blocking the loop.
				select {
				case env, ok := <-conn.Inbound:
					if !ok {
						return
					}
					switch env.Type {
					case ctlproto.TypeMeasureRequest:
						approaching := trend.Trend() == stats.TrendDecreasing
						if err := conn.ReportMeasurement(ctlproto.MeasureReport{
							Client:      client,
							RSSIdBm:     link.Measure(t).RSSIdBm,
							Approaching: approaching,
							Time:        t,
						}); err != nil {
							fmt.Fprintf(os.Stderr, "%s: measure report: %v\n", id, err)
						}
						fmt.Printf("t=%4.1fs  %s measured client: %.0f dBm, approaching=%v\n",
							t, id, link.Measure(t).RSSIdBm, approaching)
					case ctlproto.TypeRoamDirective:
						d, err := ctlproto.DecodePayload[ctlproto.RoamDirective](env)
						if err == nil && serving {
							fmt.Printf("t=%4.1fs  %s forces roam -> candidates %v\n",
								t, id, d.Candidates)
							fmt.Printf("         disassociates client %s (reason 8)\n", client)
							select {
							case roamed <- d.Candidates[0]:
							default:
							}
							serving = false
						}
					}
				default:
				}
			}
		}()
	}

	select {
	case target := <-roamed:
		fmt.Printf("\nclient handed off to %s — the controller saw macro-away motion\n", target)
		fmt.Println("at the serving AP and an approaching, stronger neighbor.")
	case <-time.After(30 * time.Second):
		fmt.Println("\nno roam occurred (client stayed in its cell)")
	}
}
