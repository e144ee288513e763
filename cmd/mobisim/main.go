// Command mobisim runs individual pieces of the mobility-aware WLAN
// simulator from the command line.
//
// Subcommands:
//
//	classify  - run the PHY-layer mobility classifier over a scenario
//	link      - closed-loop single-link run (rate control + aggregation)
//	wlan      - walk through the 6-AP floor with the full stack
//	fleet     - N independent clients against the shared AP plan
//	roam      - roaming-policy comparison on one walk
//	subf      - single-user beamforming with a chosen feedback period
//	mumimo    - three-client MU-MIMO with a common or adaptive feedback period
//	sched     - downlink scheduling policies in a three-client cell
//
// As a convenience, fleet flags may be passed directly ("mobisim
// -clients 64" is "mobisim fleet -clients 64").
//
// Every subcommand takes -seed and -duration; see -h of each for more.
// All subcommands except sched also take the shared telemetry flags
// (-metrics, -metrics-json, -metrics-addr, -trace) described in
// docs/OPERATIONS.md; dumps go to stderr or files, never stdout.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"mobiwlan/internal/aggregation"
	"mobiwlan/internal/beamforming"
	"mobiwlan/internal/channel"
	"mobiwlan/internal/core"
	"mobiwlan/internal/geom"
	"mobiwlan/internal/mobility"
	"mobiwlan/internal/obs"
	"mobiwlan/internal/roaming"
	"mobiwlan/internal/scenario"
	"mobiwlan/internal/sched"
	"mobiwlan/internal/sim"
	"mobiwlan/internal/stats"
	"mobiwlan/internal/transport"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	if strings.HasPrefix(cmd, "-") {
		// Bare flags select the fleet workload: mobisim -clients 64.
		cmdFleet(os.Args[1:])
		return
	}
	switch cmd {
	case "classify":
		cmdClassify(args)
	case "link":
		cmdLink(args)
	case "wlan":
		cmdWLAN(args)
	case "fleet":
		cmdFleet(args)
	case "roam":
		cmdRoam(args)
	case "subf":
		cmdSUBF(args)
	case "mumimo":
		cmdMUMIMO(args)
	case "sched":
		cmdSched(args)
	default:
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: mobisim <classify|link|wlan|fleet|roam|subf|mumimo|sched> [flags]")
}

// cmdFleet runs the multi-client scale harness: the clients of a
// -scenario file, or N independent clients with round-robin mobility
// modes (scenario.RoundRobin), against the shared AP plan. Per-client
// lines are printed in client order so runs with different -jobs values
// can be diffed byte-for-byte.
//
//mobilint:stdout subcommand result tables are the byte-identical-stdout experiment output
func cmdFleet(args []string) {
	fs := flag.NewFlagSet("fleet", flag.ExitOnError)
	clients := fs.Int("clients", 16, "number of independent clients")
	scenFile := fs.String("scenario", "", "declarative scenario file (JSON, see docs/SCENARIOS.md); overrides -clients, -duration, and -motion-aware")
	jobs := fs.Int("jobs", 0, "parallel workers (0 = GOMAXPROCS)")
	duration := fs.Float64("duration", 10, "seconds per client")
	seed := fs.Uint64("seed", 1, "RNG seed")
	aware := fs.Bool("motion-aware", true, "use the mobility-aware stack")
	quiet := fs.Bool("quiet", false, "suppress per-client lines")
	contend := fs.Bool("contend", false, "share the medium: CSMA/CA contention + OBSS interference")
	aps := fs.Int("aps", 0, "AP count for the contended grid plan (0 = the 6-AP default floor)")
	channels := fs.Int("channels", 0, "channel count for the contended plan (0 = 3)")
	csRange := fs.Float64("cs-range", 0, "AP-to-AP carrier-sense range in meters (0 = 25)")
	maxAPs := fs.Int("max-aps", 0, "APs each contended client simulates links to (0 = all)")
	ofl := obs.AddFlags(fs, "mobisim")
	parseArgs(fs, args)

	opt := sim.FleetOptions{
		Jobs:        *jobs,
		Obs:         ofl.Scope(),
		Contend:     *contend,
		APs:         *aps,
		NumChannels: *channels,
		CSRangeM:    *csRange,
		MaxAPs:      *maxAPs,
	}
	defer ofl.Finish()
	// Without -scenario the fleet is the generated round-robin spec; both
	// run through the same runner and differ only in how they print.
	var spec *scenario.Spec
	var err error
	if *scenFile == "" {
		spec = scenario.RoundRobin(*clients, *duration, *aware)
	} else if spec, err = scenario.ParseFile(*scenFile); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	res, err := sim.RunScenarioFleet(spec, opt, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if !*quiet {
		for i, c := range res.PerClient {
			if *scenFile != "" {
				fmt.Printf("client %3d  %-14s %-13s %6.2f Mbps  %d handoffs  %d scans\n",
					c.Client, res.Names[i], c.Mode, c.Mbps, c.Handoffs, c.Scans)
			} else {
				fmt.Printf("client %3d  %-13s %6.2f Mbps  %d handoffs  %d scans\n",
					c.Client, c.Mode, c.Mbps, c.Handoffs, c.Scans)
			}
		}
	}
	// Print the fleet that ran, not the flags: RoundRobin maps a
	// non-positive -duration to the scene default and a negative
	// -clients to an empty fleet.
	label := ""
	if *scenFile != "" {
		label = "scenario " + spec.Name + ", "
	}
	fmt.Printf("fleet: %s%d clients x %.0f s, total %.1f Mbps, mean %.2f Mbps, %d handoffs, %d scans\n",
		label, len(res.PerClient), spec.DurationS, res.TotalMbps, res.MeanMbps, res.Handoffs, res.Scans)
	if cs := res.Contend; cs != nil {
		if !*quiet {
			for b, s := range cs.BSS {
				fmt.Printf("bss %3d  ch %d dom %2d  %6d frames  %5d collisions  %6d deferrals  %7.3f s airtime\n",
					b, s.Channel, s.Domain, s.Frames, s.Collisions, s.Deferrals, s.AirtimeS)
			}
		}
		m := cs.MPDU
		fmt.Printf("medium: %d domains, mpdus %d offered = %d delivered + %d per + %d collision + %d obss\n",
			len(cs.Domains), m.Offered, m.Delivered, m.PERLost, m.CollisionLost, m.OBSSLost)
	}
}

// parseArgs parses args into fs. Every subcommand FlagSet uses
// flag.ExitOnError, so Parse exits on bad input and its error result
// is always nil.
func parseArgs(fs *flag.FlagSet, args []string) {
	_ = fs.Parse(args)
}

//mobilint:stdout subcommand result tables are the byte-identical-stdout experiment output
func cmdClassify(args []string) {
	fs := flag.NewFlagSet("classify", flag.ExitOnError)
	mode := fs.String("mode", "macro", "ground-truth scenario mode")
	duration := fs.Float64("duration", 30, "seconds")
	seed := fs.Uint64("seed", 1, "RNG seed")
	ofl := obs.AddFlags(fs, "mobisim")
	parseArgs(fs, args)

	scen, err := mobility.NamedScenario(*mode, *duration, stats.NewRNG(*seed))
	if err != nil {
		fmt.Fprintln(os.Stderr, "mobisim:", err)
		os.Exit(2)
	}
	pc := core.DefaultPipelineConfig()
	pc.Obs = ofl.Scope()
	decisions := core.RunScenario(scen, pc, *seed+1)
	defer ofl.Finish()
	var last core.State = -1
	for _, d := range decisions {
		if d.State != last {
			fmt.Printf("t=%6.2fs  state=%-13s truth=%s\n", d.Time, d.State, d.Truth)
			last = d.State
		}
	}
	fmt.Printf("\naccuracy (after 6 s warmup): %.1f%%\n", 100*core.Accuracy(decisions, 6))
}

//mobilint:stdout subcommand result tables are the byte-identical-stdout experiment output
func cmdLink(args []string) {
	fs := flag.NewFlagSet("link", flag.ExitOnError)
	mode := fs.String("mode", "macro", "ground-truth scenario mode")
	duration := fs.Float64("duration", 20, "seconds")
	seed := fs.Uint64("seed", 1, "RNG seed")
	aware := fs.Bool("motion-aware", false, "use the mobility-aware stack")
	traffic := fs.String("traffic", "udp", "udp|tcp|cbr:<Mbps>")
	power := fs.Float64("power", channel.DefaultConfig().TxPowerDBm, "AP transmit power (dBm)")
	ofl := obs.AddFlags(fs, "mobisim")
	parseArgs(fs, args)

	scen, err := mobility.NamedScenario(*mode, *duration, stats.NewRNG(*seed))
	if err != nil {
		fmt.Fprintln(os.Stderr, "mobisim:", err)
		os.Exit(2)
	}
	opt := sim.DefaultLinkOptions()
	if *aware {
		opt = sim.MotionAwareLinkOptions()
	}
	opt.Channel.TxPowerDBm = *power
	opt.Obs = ofl.Scope()
	defer ofl.Finish()
	switch {
	case *traffic == "udp":
		opt.Source = transport.Saturated{}
	case *traffic == "tcp":
		opt.Source = transport.NewTCPReno(1500)
	default:
		var rate float64
		if _, err := fmt.Sscanf(*traffic, "cbr:%f", &rate); err != nil {
			fmt.Fprintln(os.Stderr, "mobisim: bad -traffic; want udp|tcp|cbr:<Mbps>")
			os.Exit(2)
		}
		opt.Source = &transport.CBR{RateMbps: rate, MPDUBytes: 1500}
	}
	res := sim.RunLink(scen, opt, *seed+7)
	fmt.Printf("throughput: %.1f Mbps over %.0f s (%d frames, %d MPDUs delivered)\n",
		res.Mbps, *duration, res.Frames, res.DeliveredMPDUs)
	if *aware {
		fmt.Println("time per classifier state:")
		for _, s := range []core.State{core.StateStatic, core.StateEnvironmental,
			core.StateMicro, core.StateMacroAway, core.StateMacroToward} {
			if d := res.StateDurations[s]; d > 0.05 {
				fmt.Printf("  %-13s %.1f s\n", s, d)
			}
		}
	}
}

//mobilint:stdout subcommand result tables are the byte-identical-stdout experiment output
func cmdWLAN(args []string) {
	fs := flag.NewFlagSet("wlan", flag.ExitOnError)
	duration := fs.Float64("duration", 30, "seconds")
	seed := fs.Uint64("seed", 1, "RNG seed")
	ofl := obs.AddFlags(fs, "mobisim")
	parseArgs(fs, args)

	cfg := mobility.DefaultSceneConfig()
	cfg.Duration = *duration
	scen := mobility.NewScenario(mobility.Static, cfg, stats.NewRNG(*seed))
	scen.Label = mobility.Macro
	scen.Client = mobility.WaypointWalk{
		Path:     crossFloorPath(),
		Speed:    1.4,
		PingPong: true,
	}
	optDef := sim.DefaultWLANOptions(false)
	optDef.Obs, optDef.Trial = ofl.Scope(), 0
	optAware := sim.DefaultWLANOptions(true)
	optAware.Obs, optAware.Trial = ofl.Scope(), 1
	defer ofl.Finish()
	def := sim.RunWLAN(scen, optDef, *seed+3)
	aware := sim.RunWLAN(scen, optAware, *seed+3)
	fmt.Printf("802.11n default: %.1f Mbps (%d handoffs, %d scans)\n", def.Mbps, def.Handoffs, def.Scans)
	fmt.Printf("motion-aware:    %.1f Mbps (%d handoffs, %d scans)\n", aware.Mbps, aware.Handoffs, aware.Scans)
	if def.Mbps > 0 {
		fmt.Printf("gain: %+.0f%%\n", 100*(aware.Mbps/def.Mbps-1))
	}
}

//mobilint:stdout subcommand result tables are the byte-identical-stdout experiment output
func cmdRoam(args []string) {
	fs := flag.NewFlagSet("roam", flag.ExitOnError)
	duration := fs.Float64("duration", 40, "seconds")
	seed := fs.Uint64("seed", 1, "RNG seed")
	ofl := obs.AddFlags(fs, "mobisim")
	parseArgs(fs, args)

	cfg := mobility.DefaultSceneConfig()
	cfg.Duration = *duration
	scen := mobility.NewScenario(mobility.Static, cfg, stats.NewRNG(*seed))
	scen.Label = mobility.Macro
	scen.Client = mobility.WaypointWalk{Path: crossFloorPath(), Speed: 1.4, PingPong: true}

	opt := sim.DefaultWLANOptions(false)
	opt.Obs = ofl.Scope()
	defer ofl.Finish()
	for pi, pol := range []roaming.Policy{
		roaming.NewDefault80211(), roaming.NewSensorHint(), roaming.NewMobilityAware(),
	} {
		opt.Trial = pi
		res := sim.RunRoaming(scen, pol, opt, *seed+9)
		fmt.Printf("%-16s %.1f Mbps (%d handoffs, %d scans)\n",
			pol.Name(), res.Mbps, res.Handoffs, res.Scans)
	}
}

//mobilint:stdout subcommand result tables are the byte-identical-stdout experiment output
func cmdSUBF(args []string) {
	fs := flag.NewFlagSet("subf", flag.ExitOnError)
	mode := fs.String("mode", "macro", "ground-truth scenario mode")
	duration := fs.Float64("duration", 10, "seconds")
	seed := fs.Uint64("seed", 1, "RNG seed")
	period := fs.Float64("period", 20, "CSI feedback period (ms); 0 = mobility-adaptive")
	ofl := obs.AddFlags(fs, "mobisim")
	parseArgs(fs, args)

	scen, err := mobility.NamedScenario(*mode, *duration+6, stats.NewRNG(*seed))
	if err != nil {
		fmt.Fprintln(os.Stderr, "mobisim:", err)
		os.Exit(2)
	}
	chCfg := channel.DefaultConfig()
	chCfg.TxPowerDBm = -8 // cell edge, where beamforming matters
	ch := channel.New(chCfg, scen, stats.NewRNG(*seed+2))
	var sched beamforming.FeedbackScheduler = beamforming.FixedFeedback{T: *period / 1000}
	var stateAt func(float64) core.State
	if *period == 0 {
		sched = beamforming.Adaptive{}
		stateAt = core.StateAt(core.RunScenario(scen, core.DefaultPipelineConfig(), *seed+4))
	}
	suCfg := beamforming.DefaultConfig()
	suCfg.Obs = ofl.Scope()
	defer ofl.Finish()
	res := beamforming.RunSU(ch, sched, stateAt, suCfg, *duration)
	fmt.Printf("SU-BF (%s): %.1f Mbps, %d soundings, %.1f%% airtime on feedback\n",
		sched.Name(), res.Mbps, res.Soundings, 100*res.FeedbackFraction)
}

// crossFloorPath is the Fig. 13(a)-style walking trajectory past several
// APs of the default plan.
func crossFloorPath() geom.Path {
	return geom.NewPath(geom.Pt(4, 7), geom.Pt(46, 7), geom.Pt(46, 23), geom.Pt(4, 23))
}

//mobilint:stdout subcommand result tables are the byte-identical-stdout experiment output
func cmdMUMIMO(args []string) {
	fs := flag.NewFlagSet("mumimo", flag.ExitOnError)
	duration := fs.Float64("duration", 8, "seconds")
	seed := fs.Uint64("seed", 1, "RNG seed")
	period := fs.Float64("period", 20, "common CSI feedback period (ms); 0 = per-client adaptive")
	ofl := obs.AddFlags(fs, "mobisim")
	parseArgs(fs, args)

	modes := []mobility.Mode{mobility.Environmental, mobility.Micro, mobility.Macro}
	users := make([]beamforming.MUUser, 3)
	for i, mode := range modes {
		rng := stats.NewRNG(*seed + uint64(i)*31)
		mcfg := mobility.DefaultSceneConfig()
		mcfg.Duration = *duration + 8
		mcfg.EnvIntensity = 0.4
		var scen *mobility.Scenario
		if mode == mobility.Macro {
			scen = mobility.NewMacroScenario(mobility.HeadingToward, mcfg, rng)
		} else {
			scen = mobility.NewScenario(mode, mcfg, rng)
		}
		chCfg := channel.DefaultConfig()
		chCfg.NRx = 1
		chCfg.TxPowerDBm = 4
		u := beamforming.MUUser{Chan: channel.NewAt(chCfg, mcfg.AP, scen, rng.Split(9))}
		if *period == 0 {
			u.Sched = beamforming.Adaptive{Table: beamforming.MUAdaptiveTable}
			u.StateAt = core.StateAt(core.RunScenario(scen, core.DefaultPipelineConfig(), *seed+uint64(i)))
		} else {
			u.Sched = beamforming.FixedFeedback{T: *period / 1000}
		}
		users[i] = u
	}
	muCfg := beamforming.DefaultConfig()
	muCfg.Obs = ofl.Scope()
	defer ofl.Finish()
	res := beamforming.RunMU(users, muCfg, *duration)
	for i, mode := range modes {
		fmt.Printf("%-14s %6.1f Mbps\n", mode, res.PerUserMbps[i])
	}
	fmt.Printf("%-14s %6.1f Mbps (feedback airtime %.1f%%)\n",
		"total", res.TotalMbps, 100*res.FeedbackFraction)
}

//mobilint:stdout subcommand result tables are the byte-identical-stdout experiment output
func cmdSched(args []string) {
	fs := flag.NewFlagSet("sched", flag.ExitOnError)
	duration := fs.Float64("duration", 14, "seconds")
	seed := fs.Uint64("seed", 1, "RNG seed")
	parseArgs(fs, args)

	for _, pol := range []sched.Policy{&sched.RoundRobin{}, sched.AirtimeFair{}, sched.MobilityAware{}} {
		res := sched.Run(sim.SchedCell(*seed, *duration), pol, aggregation.Adaptive{}, *duration)
		fmt.Printf("%-16s total %6.1f Mbps  Jain %.2f  per-client %v\n",
			pol.Name(), res.TotalMbps, res.JainFairness, fmtSlice(res.PerClientMbps))
	}
}

func fmtSlice(xs []float64) string {
	out := "["
	for i, x := range xs {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%.1f", x)
	}
	return out + "]"
}
