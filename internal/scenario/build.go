package scenario

import (
	"fmt"
	"math"

	"mobiwlan/internal/geom"
	"mobiwlan/internal/mobility"
	"mobiwlan/internal/stats"
)

// Client is one expanded simulation input: everything the fleet runner
// needs to simulate one station.
type Client struct {
	// Name is the display name: the group id, suffixed "#k" for k-th member
	// of a multi-client group.
	Name string
	// Index is the flat client index across the whole scenario.
	Index int
	// Group is the index of the originating group in Spec.Groups.
	Group int
	// Mode is the ground-truth mobility class (also on Scen.Label).
	Mode mobility.Mode
	// MotionAware selects the roaming policy for this client.
	MotionAware bool
	// HomeAP is the effective home AP index, -1 when no deployment was
	// given (uncontended runs keep the scene in its own frame).
	HomeAP int
	// Scen is the fully built scenario: trajectory, scatterers, labels.
	Scen *mobility.Scenario
	// SimSeed seeds the client's WLAN simulation.
	SimSeed uint64
}

// groupLabelBase keeps group-level RNG labels disjoint from the per-client
// labels i+1 (clients are capped at MaxClients, far below 2^32).
const groupLabelBase = uint64(1) << 32

// Build expands a validated spec into per-client simulation inputs against
// a deployment of len(aps) access points. aps may be nil for uncontended
// runs: clients then keep the scene in its own frame, HomeAP is -1 and
// any home_ap is ignored. With a deployment, each client's scene is
// shifted so the scene AP lands on its home AP.
//
// Determinism contract (see docs/SCENARIOS.md): parsing never draws
// randomness; every client derives all of its randomness from
// Split(seed, i+1) where i is the flat client index — the scenario comes
// from base.Split(1) (with model overrides drawing from its child label 4,
// untouched by the scene generator) and the simulation seed from
// base.Split(2), the same shape the round-robin fleet uses. Group-shared
// draws (the leader walk of model "group") come from Split(seed, 2^32+g)
// keyed by group index. No draw depends on worker scheduling, so results
// are byte-identical at any -jobs value.
func Build(spec *Spec, aps []geom.Point, seed uint64) ([]Client, error) {
	root := stats.NewRNG(seed)
	out := make([]Client, 0, spec.Total)
	flat := 0
	for gi := range spec.Groups {
		g := &spec.Groups[gi]
		if len(aps) > 0 && g.HomeAP >= len(aps) {
			return nil, fmt.Errorf("scenario %s: clients[%d] (%s): home_ap %d but the deployment has %d APs",
				spec.Name, gi, g.ID, g.HomeAP, len(aps))
		}
		// Model "group" shares one leader walk: its home (and thus scene
		// frame) must be common to the whole group, so it is keyed by group
		// index, not flat client index.
		var leader mobility.Trajectory
		var leadHome int
		if g.Model == "group" {
			leadHome = groupHome(g, gi, len(aps))
			scfg := sceneConfig(spec, g, leadHome, aps)
			grng := root.Split(groupLabelBase + uint64(gi))
			center := geom.Pt(
				grng.Range(scfg.Bounds.MinX+4, scfg.Bounds.MaxX-4),
				grng.Range(scfg.Bounds.MinY+4, scfg.Bounds.MaxY-4),
			)
			path := mobility.RandomWalkPath(center, scfg.Bounds, 6, 4, 12, grng)
			leader = mobility.WaypointWalk{Path: path, Speed: g.SpeedMPS, PingPong: true}
		}
		for k := 0; k < g.Count; k++ {
			i := flat
			flat++
			home := groupHome(g, i, len(aps))
			if g.Model == "group" {
				home = leadHome
			}
			scfg := sceneConfig(spec, g, home, aps)
			base := root.Split(uint64(i) + 1)
			scenRNG := base.Split(1)
			scen := mobility.NewScenario(g.Mode, scfg, scenRNG)
			// Child label 4 of the scenario RNG is untouched by the scene
			// generator (it uses 1-3), so model overrides stay independent
			// of scatterer placement.
			mrng := scenRNG.Split(4)
			applyModel(scen, g, spec, scfg, leader, mrng)

			name := g.ID
			if g.Count > 1 {
				name = fmt.Sprintf("%s#%d", g.ID, k)
			}
			out = append(out, Client{
				Name:        name,
				Index:       i,
				Group:       gi,
				Mode:        g.Mode,
				MotionAware: g.MotionAware,
				HomeAP:      home,
				Scen:        scen,
				SimSeed:     base.Split(2).Uint64(),
			})
		}
	}
	return out, nil
}

// groupHome resolves the effective home AP for index idx (a flat client
// index, or the group index for model "group"); -1 without a deployment.
func groupHome(g *Group, idx, numAPs int) int {
	if numAPs == 0 {
		return -1
	}
	if g.HomeAP >= 0 {
		return g.HomeAP
	}
	return idx % numAPs
}

// sceneConfig derives the scene generator's config for one client: the
// spec's floor and duration, the group's knobs, and — when homed to a
// deployment AP — the frame translated so the scene AP lands on the home
// AP (the translation preserves the generator's draw sequence because all
// geometry is relative to Bounds and AP).
func sceneConfig(spec *Spec, g *Group, home int, aps []geom.Point) mobility.SceneConfig {
	scfg := mobility.DefaultSceneConfig()
	scfg.Bounds = spec.Floor
	scfg.AP = spec.Floor.Center()
	scfg.Duration = spec.DurationS
	scfg.WalkSpeed = g.SpeedMPS
	scfg.MicroRadius = g.MicroRadiusM
	scfg.EnvIntensity = g.EnvIntensity
	if home >= 0 {
		dx := aps[home].X - scfg.AP.X
		dy := aps[home].Y - scfg.AP.Y
		scfg.AP = aps[home]
		scfg.Bounds.MinX += dx
		scfg.Bounds.MaxX += dx
		scfg.Bounds.MinY += dy
		scfg.Bounds.MaxY += dy
	}
	return scfg
}

// applyModel replaces the default client trajectory with the group's
// trajectory model and applies the start delay. mrng is the model RNG
// (scenario RNG child 4); every model draws only from it.
func applyModel(scen *mobility.Scenario, g *Group, spec *Spec, scfg mobility.SceneConfig, leader mobility.Trajectory, mrng *stats.RNG) {
	switch g.Model {
	case "fixed", "jitter", "waypoint":
		// NewScenario already built these.
	case "random-waypoint":
		start := scen.Client.At(0)
		scen.Client = mobility.NewRandomWaypoint(scfg.Bounds, start,
			0.8*g.SpeedMPS, 1.2*g.SpeedMPS, g.PauseS, spec.DurationS, mrng)
	case "manhattan":
		start := scen.Client.At(0)
		legs := int(spec.DurationS*g.SpeedMPS/g.BlockM) + 4
		if legs > 2000 {
			legs = 2000
		}
		path := mobility.ManhattanPath(start, scfg.Bounds, g.BlockM, legs, mrng)
		scen.Client = mobility.WaypointWalk{Path: path, Speed: g.SpeedMPS, PingPong: true}
	case "circle":
		scen.Client = mobility.CircleWalk{
			Center:     scfg.AP,
			Radius:     g.RadiusM,
			Speed:      g.SpeedMPS,
			StartAngle: mrng.Range(0, 2*math.Pi),
		}
	case "group":
		seat := geom.FromPolar(mrng.Range(0.5, 2.5), mrng.Range(0, 2*math.Pi))
		scen.Client = mobility.Offset{Base: leader, By: seat}
	}
	delay := g.StartS
	if g.StartSpreadS > 0 {
		delay += mrng.Range(0, g.StartSpreadS)
	}
	if delay > 0 {
		scen.Client = mobility.Delayed{Start: delay, Traj: scen.Client}
	}
}
