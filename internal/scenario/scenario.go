// Package scenario parses and validates the declarative fleet-scenario file
// format (versioned "v": 1) and expands it into per-client simulation
// inputs. Parsing and validation never draw from any RNG; all randomness in
// the expansion step (Build) comes from Split-derived children of the caller
// seed, keyed by flat client index and group index, so a scenario run is
// byte-identical at any worker count. docs/SCENARIOS.md is the user-facing
// reference for the format.
package scenario

import (
	"fmt"
	"math"
	"os"
	"strconv"

	"mobiwlan/internal/geom"
	"mobiwlan/internal/mobility"
)

// Schema limits. These are deliberate, documented bounds, not plumbing
// constraints: they keep a scenario file reviewable and a fleet run
// tractable on one machine.
const (
	// Version is the only scenario-file version this build reads.
	Version = 1
	// MaxGroups bounds the number of client groups in one file.
	MaxGroups = 256
	// MaxGroupCount bounds the count of a single group.
	MaxGroupCount = 1024
	// MaxClients bounds the expanded client total across all groups.
	MaxClients = 4096
	// MaxDurationS bounds the scenario duration.
	MaxDurationS = 3600
	// MaxHomeAP bounds the home_ap field (the deployment may be smaller;
	// Build checks against the actual AP count).
	MaxHomeAP = 63
	// MinSpeedMPS and MaxSpeedMPS bound explicit client speeds.
	MinSpeedMPS = 0.05
	MaxSpeedMPS = 50
)

// Spec is a scenario: a parsed, validated file, or one generated in code
// (RoundRobin). All defaults are resolved: every Group field holds its
// effective value.
type Spec struct {
	// Name identifies the scenario (lowercase identifier).
	Name string
	// Comment is free-form operator text, not interpreted.
	Comment string
	// DurationS is the scenario length in seconds.
	DurationS float64
	// Floor is the scene floor plan; the scene AP sits at its center.
	Floor geom.Rect
	// Groups are the client groups in file order.
	Groups []Group
	// Total is the expanded client count (sum of group counts).
	Total int
}

// Group is one entry of the "clients" array with defaults applied.
type Group struct {
	// ID is the group identifier, unique within the file.
	ID string
	// Count is how many clients this entry expands to.
	Count int
	// Mode is the ground-truth mobility class.
	Mode mobility.Mode
	// Model is the canonical trajectory model: "fixed", "jitter",
	// "waypoint", "random-waypoint", "manhattan", "circle", or "group".
	Model string
	// SpeedMPS is the macro movement speed in m/s.
	SpeedMPS float64
	// PauseS is the random-waypoint maximum pause, seconds.
	PauseS float64
	// BlockM is the Manhattan-grid street pitch, meters.
	BlockM float64
	// RadiusM is the circle-walk radius, meters.
	RadiusM float64
	// MicroRadiusM is the micro-mobility confinement radius, meters.
	MicroRadiusM float64
	// EnvIntensity scales environmental-scatterer reflectivity.
	EnvIntensity float64
	// StartS delays movement onset, seconds from scenario start.
	StartS float64
	// StartSpreadS staggers movement onset uniformly over this window.
	StartSpreadS float64
	// HomeAP pins the group to one AP of the deployment (-1 = assign
	// round-robin). Only meaningful for contended fleet runs; Build
	// ignores it without a deployment.
	HomeAP int
	// MotionAware selects the mobility-aware roaming policy per client.
	MotionAware bool
}

// ParseFile reads and parses a scenario file from disk.
func ParseFile(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Parse(path, data)
}

// Parse validates data against the v1 scenario schema. name labels
// diagnostics (usually the file path); every returned error is an *Error
// carrying a 1-based line and column.
func Parse(name string, data []byte) (*Spec, error) {
	root, err := parseTree(name, data)
	if err != nil {
		return nil, err
	}
	v := &validator{name: name}
	return v.spec(root)
}

// validator walks the position-annotated tree and produces a Spec.
type validator struct {
	name string
}

func (v *validator) fail(n *node, path, format string, args ...any) *Error {
	return &Error{Name: v.name, Line: n.line, Col: n.col, Path: path,
		Msg: fmt.Sprintf(format, args...)}
}

func joinPath(path, key string) string {
	if path == "" {
		return key
	}
	return path + "." + key
}

// field returns obj's child key checked to the wanted kind; a missing field
// returns (nil, nil).
func (v *validator) field(obj *node, path, key string, kind nodeKind) (*node, error) {
	n, ok := obj.fields[key]
	if !ok {
		return nil, nil
	}
	if n.kind != kind {
		return nil, v.fail(n, joinPath(path, key), "is %s, want %s", n.kind, kind)
	}
	return n, nil
}

// known rejects the first key of obj (in document order) that is not in
// allowed.
func (v *validator) known(obj *node, path string, allowed ...string) error {
	for _, k := range obj.keys {
		ok := false
		for _, a := range allowed {
			if k == a {
				ok = true
				break
			}
		}
		if !ok {
			return v.fail(obj.fields[k], joinPath(path, k), "unknown field %q", k)
		}
	}
	return nil
}

// numField reads an optional number field with an inclusive-or-exclusive
// lower bound; absent fields return (def, false, nil).
func (v *validator) numField(obj *node, path, key string, def, lo, hi float64, loExcl bool, unit string) (float64, bool, error) {
	n, err := v.field(obj, path, key, kindNumber)
	if n == nil || err != nil {
		return def, false, err
	}
	bad := n.num > hi
	if loExcl {
		bad = bad || n.num <= lo
	} else {
		bad = bad || n.num < lo
	}
	if bad {
		open := "["
		if loExcl {
			open = "("
		}
		return def, false, v.fail(n, joinPath(path, key),
			"out of range: %g not in %s%g, %g]%s", n.num, open, lo, hi, unit)
	}
	return n.num, true, nil
}

// intField reads an optional integer field in [lo, hi].
func (v *validator) intField(obj *node, path, key string, def, lo, hi int) (int, bool, error) {
	n, err := v.field(obj, path, key, kindNumber)
	if n == nil || err != nil {
		return def, false, err
	}
	if n.num != math.Trunc(n.num) {
		return def, false, v.fail(n, joinPath(path, key), "must be an integer, got %v", n.num)
	}
	i := int(n.num)
	if i < lo || i > hi {
		return def, false, v.fail(n, joinPath(path, key),
			"out of range: %d not in [%d, %d]", i, lo, hi)
	}
	return i, true, nil
}

// boolField reads an optional bool field.
func (v *validator) boolField(obj *node, path, key string, def bool) (bool, error) {
	n, err := v.field(obj, path, key, kindBool)
	if n == nil || err != nil {
		return def, err
	}
	return n.b, nil
}

// validIdent reports whether s is a non-empty lowercase identifier of at
// most 64 characters from [a-z0-9._-].
func validIdent(s string) bool {
	if len(s) == 0 || len(s) > 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// parseMode maps the scenario-file mode vocabulary onto mobility.Mode.
func parseMode(s string) (mobility.Mode, bool) {
	switch s {
	case "static":
		return mobility.Static, true
	case "environmental", "env":
		return mobility.Environmental, true
	case "micro":
		return mobility.Micro, true
	case "macro":
		return mobility.Macro, true
	default:
		return mobility.Static, false
	}
}

// defaultModel is the trajectory model a mode gets when the file names none.
func defaultModel(m mobility.Mode) string {
	switch m {
	case mobility.Micro:
		return "jitter"
	case mobility.Macro:
		return "waypoint"
	default:
		return "fixed"
	}
}

// modelAllowed reports whether a trajectory model makes sense for a mode.
func modelAllowed(m mobility.Mode, model string) bool {
	switch m {
	case mobility.Macro:
		switch model {
		case "waypoint", "random-waypoint", "manhattan", "circle", "group":
			return true
		}
		return false
	case mobility.Micro:
		return model == "jitter"
	default:
		return model == "fixed"
	}
}

// specDefaults carries the resolved "defaults" object.
type specDefaults struct {
	speedMPS     float64
	motionAware  bool
	envIntensity float64
	microRadiusM float64
}

// defaultFloor is the floor of a file without "floor": the scene
// generator's default floor (mobility.DefaultSceneConfig).
var defaultFloor = geom.Rect{MinX: 0, MinY: 0, MaxX: 50, MaxY: 30}

// baseDefaults is the "defaults" object of a file without one; its
// values match mobility.DefaultSceneConfig.
var baseDefaults = specDefaults{
	speedMPS:     mobility.SpeedPedestrian,
	motionAware:  true,
	envIntensity: 1,
	microRadiusM: 0.5,
}

// newGroup returns a one-client group with every optional field at its
// default under def. The caller sets ID, Mode and Model.
func newGroup(def specDefaults) Group {
	return Group{
		Count:        1,
		SpeedMPS:     def.speedMPS,
		BlockM:       10,
		RadiusM:      8,
		MicroRadiusM: def.microRadiusM,
		EnvIntensity: def.envIntensity,
		HomeAP:       -1,
		MotionAware:  def.motionAware,
	}
}

// RoundRobin generates the round-robin fleet as a spec: n one-client
// groups on the default floor, where client i is in mode
// mobility.AllModes[i%4] with that mode's default trajectory model, no
// pinned home AP, and every other knob at its file default. durationS <= 0
// keeps the scene default (30 s); motionAware selects every client's
// protocol stack. Group i's ID is the decimal client index.
//
// A spec built in code skips the file limits (MaxGroups, MaxClients), so
// a generated fleet may be larger than any file could declare.
func RoundRobin(n int, durationS float64, motionAware bool) *Spec {
	if durationS <= 0 {
		durationS = mobility.DefaultSceneConfig().Duration
	}
	n = max(n, 0)
	spec := &Spec{Name: "round-robin", DurationS: durationS, Floor: defaultFloor,
		Groups: make([]Group, n), Total: n}
	def := baseDefaults
	def.motionAware = motionAware
	for i := range spec.Groups {
		g := newGroup(def)
		g.ID = strconv.Itoa(i)
		g.Mode = mobility.AllModes[i%len(mobility.AllModes)]
		g.Model = defaultModel(g.Mode)
		spec.Groups[i] = g
	}
	return spec
}

// speedFields resolves the mutually exclusive speed / speed_mps pair on
// obj; absent pair returns (0, false, nil).
func (v *validator) speedFields(obj *node, path string) (float64, bool, error) {
	sn, err := v.field(obj, path, "speed", kindString)
	if err != nil {
		return 0, false, err
	}
	mn, err := v.field(obj, path, "speed_mps", kindNumber)
	if err != nil {
		return 0, false, err
	}
	if sn != nil && mn != nil {
		return 0, false, v.fail(mn, joinPath(path, "speed_mps"),
			"speed and speed_mps are mutually exclusive")
	}
	if sn != nil {
		sp, ok := mobility.ProfileSpeed(sn.str)
		if !ok {
			return 0, false, v.fail(sn, joinPath(path, "speed"),
				"unknown speed profile %q (want pedestrian, bike, or vehicle)", sn.str)
		}
		return sp, true, nil
	}
	if mn != nil {
		if mn.num < MinSpeedMPS || mn.num > MaxSpeedMPS {
			return 0, false, v.fail(mn, joinPath(path, "speed_mps"),
				"out of range: %g not in [%g, %g] m/s", mn.num, float64(MinSpeedMPS), float64(MaxSpeedMPS))
		}
		return mn.num, true, nil
	}
	return 0, false, nil
}

// spec validates the whole document.
func (v *validator) spec(root *node) (*Spec, error) {
	if root.kind != kindObject {
		return nil, v.fail(root, "", "top level is %s, want an object", root.kind)
	}
	// Version gates everything else: a future-versioned file gets one clear
	// error instead of a pile of unknown-field noise.
	ver, present, err := v.intField(root, "", "v", 0, math.MinInt32, math.MaxInt32)
	if err != nil {
		return nil, err
	}
	if !present {
		return nil, v.fail(root, "v", "missing required field (this build reads v=1)")
	}
	if ver != Version {
		return nil, v.fail(root.fields["v"], "v",
			"unsupported version %d (this build reads v=%d)", ver, Version)
	}
	if err := v.known(root, "", "v", "name", "comment", "duration_s", "floor", "defaults", "clients"); err != nil {
		return nil, err
	}

	spec := &Spec{Floor: defaultFloor}

	nameNode, err := v.field(root, "", "name", kindString)
	if err != nil {
		return nil, err
	}
	if nameNode == nil {
		return nil, v.fail(root, "name", "missing required field")
	}
	if !validIdent(nameNode.str) {
		return nil, v.fail(nameNode, "name",
			"%q is not a valid name (1-64 chars from a-z 0-9 . _ -)", nameNode.str)
	}
	spec.Name = nameNode.str

	if cn, err := v.field(root, "", "comment", kindString); err != nil {
		return nil, err
	} else if cn != nil {
		if len(cn.str) > 1024 {
			return nil, v.fail(cn, "comment", "longer than 1024 bytes")
		}
		spec.Comment = cn.str
	}

	dur, present, err := v.numField(root, "", "duration_s", 0, 0, MaxDurationS, true, " s")
	if err != nil {
		return nil, err
	}
	if !present {
		return nil, v.fail(root, "duration_s", "missing required field")
	}
	spec.DurationS = dur

	if err := v.floor(root, spec); err != nil {
		return nil, err
	}

	def := baseDefaults
	if dn, err := v.field(root, "", "defaults", kindObject); err != nil {
		return nil, err
	} else if dn != nil {
		if err := v.known(dn, "defaults", "speed", "speed_mps", "motion_aware",
			"env_intensity", "micro_radius_m"); err != nil {
			return nil, err
		}
		if sp, ok, err := v.speedFields(dn, "defaults"); err != nil {
			return nil, err
		} else if ok {
			def.speedMPS = sp
		}
		if def.motionAware, err = v.boolField(dn, "defaults", "motion_aware", def.motionAware); err != nil {
			return nil, err
		}
		if def.envIntensity, _, err = v.numField(dn, "defaults", "env_intensity",
			def.envIntensity, 0, 10, true, ""); err != nil {
			return nil, err
		}
		if def.microRadiusM, _, err = v.numField(dn, "defaults", "micro_radius_m",
			def.microRadiusM, 0, 5, true, " m"); err != nil {
			return nil, err
		}
	}

	cn, err := v.field(root, "", "clients", kindArray)
	if err != nil {
		return nil, err
	}
	if cn == nil {
		return nil, v.fail(root, "clients", "missing required field")
	}
	if len(cn.elems) == 0 {
		return nil, v.fail(cn, "clients", "needs at least one client group")
	}
	if len(cn.elems) > MaxGroups {
		return nil, v.fail(cn, "clients", "%d groups exceed the maximum of %d",
			len(cn.elems), MaxGroups)
	}
	seen := map[string]bool{}
	for i, gn := range cn.elems {
		g, err := v.group(gn, fmt.Sprintf("clients[%d]", i), spec, def, seen)
		if err != nil {
			return nil, err
		}
		spec.Groups = append(spec.Groups, g)
		spec.Total += g.Count
	}
	if spec.Total > MaxClients {
		return nil, v.fail(cn, "clients", "%d clients exceed the maximum of %d",
			spec.Total, MaxClients)
	}
	return spec, nil
}

// floor validates the optional floor object into spec.Floor.
func (v *validator) floor(root *node, spec *Spec) error {
	fn, err := v.field(root, "", "floor", kindObject)
	if err != nil || fn == nil {
		return err
	}
	if err := v.known(fn, "floor", "min_x", "min_y", "max_x", "max_y"); err != nil {
		return err
	}
	var vals [4]float64
	for i, key := range []string{"min_x", "min_y", "max_x", "max_y"} {
		n, err := v.field(fn, "floor", key, kindNumber)
		if err != nil {
			return err
		}
		if n == nil {
			return v.fail(fn, joinPath("floor", key), "missing required field")
		}
		if math.Abs(n.num) > 1e6 {
			return v.fail(n, joinPath("floor", key), "coordinate %g out of range (|x| <= 1e6 m)", n.num)
		}
		vals[i] = n.num
	}
	r := geom.Rect{MinX: vals[0], MinY: vals[1], MaxX: vals[2], MaxY: vals[3]}
	w, h := r.MaxX-r.MinX, r.MaxY-r.MinY
	if w < 5 || w > 10000 {
		return v.fail(fn, "floor", "width %g m out of range [5, 10000]", w)
	}
	if h < 5 || h > 10000 {
		return v.fail(fn, "floor", "height %g m out of range [5, 10000]", h)
	}
	spec.Floor = r
	return nil
}

// group validates one clients[] entry.
func (v *validator) group(gn *node, path string, spec *Spec, def specDefaults, seen map[string]bool) (Group, error) {
	g := newGroup(def)
	if gn.kind != kindObject {
		return g, v.fail(gn, path, "is %s, want an object", gn.kind)
	}
	if err := v.known(gn, path, "id", "count", "mode", "model", "speed", "speed_mps",
		"pause_s", "block_m", "radius_m", "micro_radius_m", "env_intensity",
		"start_s", "start_spread_s", "home_ap", "motion_aware"); err != nil {
		return g, err
	}

	idNode, err := v.field(gn, path, "id", kindString)
	if err != nil {
		return g, err
	}
	if idNode == nil {
		return g, v.fail(gn, joinPath(path, "id"), "missing required field")
	}
	if !validIdent(idNode.str) {
		return g, v.fail(idNode, joinPath(path, "id"),
			"%q is not a valid id (1-64 chars from a-z 0-9 . _ -)", idNode.str)
	}
	if seen[idNode.str] {
		return g, v.fail(idNode, joinPath(path, "id"), "duplicate client id %q", idNode.str)
	}
	seen[idNode.str] = true
	g.ID = idNode.str

	if g.Count, _, err = v.intField(gn, path, "count", 1, 1, MaxGroupCount); err != nil {
		return g, err
	}

	modeNode, err := v.field(gn, path, "mode", kindString)
	if err != nil {
		return g, err
	}
	if modeNode == nil {
		return g, v.fail(gn, joinPath(path, "mode"), "missing required field")
	}
	mode, ok := parseMode(modeNode.str)
	if !ok {
		return g, v.fail(modeNode, joinPath(path, "mode"),
			"unknown mode %q (want static, environmental, micro, or macro)", modeNode.str)
	}
	g.Mode = mode

	g.Model = defaultModel(mode)
	if mn, err := v.field(gn, path, "model", kindString); err != nil {
		return g, err
	} else if mn != nil {
		if !modelAllowed(mode, mn.str) {
			return g, v.fail(mn, joinPath(path, "model"),
				"model %q does not apply to mode %q", mn.str, modeNode.str)
		}
		g.Model = mn.str
	}

	// Speed applies to macro groups only; elsewhere an explicit speed is a
	// confused file and worth flagging.
	_, hasSpeed := gn.fields["speed"]
	_, hasSpeedMPS := gn.fields["speed_mps"]
	if (hasSpeed || hasSpeedMPS) && mode != mobility.Macro {
		key := "speed"
		if hasSpeedMPS {
			key = "speed_mps"
		}
		return g, v.fail(gn.fields[key], joinPath(path, key),
			"speed only applies to macro clients (mode is %q)", modeNode.str)
	}
	if sp, ok, err := v.speedFields(gn, path); err != nil {
		return g, err
	} else if ok {
		g.SpeedMPS = sp
	}

	// Model-specific knobs reject application to the wrong model.
	if n := gn.fields["pause_s"]; n != nil && g.Model != "random-waypoint" {
		return g, v.fail(n, joinPath(path, "pause_s"),
			"pause_s only applies to model \"random-waypoint\" (model is %q)", g.Model)
	}
	if g.PauseS, _, err = v.numField(gn, path, "pause_s", 0, 0, 120, false, " s"); err != nil {
		return g, err
	}
	if n := gn.fields["block_m"]; n != nil && g.Model != "manhattan" {
		return g, v.fail(n, joinPath(path, "block_m"),
			"block_m only applies to model \"manhattan\" (model is %q)", g.Model)
	}
	if g.BlockM, _, err = v.numField(gn, path, "block_m", g.BlockM, 2, 200, false, " m"); err != nil {
		return g, err
	}
	if n := gn.fields["radius_m"]; n != nil && g.Model != "circle" {
		return g, v.fail(n, joinPath(path, "radius_m"),
			"radius_m only applies to model \"circle\" (model is %q)", g.Model)
	}
	if g.RadiusM, _, err = v.numField(gn, path, "radius_m", g.RadiusM, 1, 1000, false, " m"); err != nil {
		return g, err
	}
	if g.Model == "circle" {
		w, h := spec.Floor.MaxX-spec.Floor.MinX, spec.Floor.MaxY-spec.Floor.MinY
		if 2*g.RadiusM > math.Min(w, h) {
			n := gn.fields["radius_m"]
			if n == nil {
				n = gn
			}
			return g, v.fail(n, joinPath(path, "radius_m"),
				"circle of radius %g m does not fit the %g x %g m floor", g.RadiusM, w, h)
		}
	}
	if n := gn.fields["micro_radius_m"]; n != nil && mode != mobility.Micro {
		return g, v.fail(n, joinPath(path, "micro_radius_m"),
			"micro_radius_m only applies to micro clients (mode is %q)", modeNode.str)
	}
	if g.MicroRadiusM, _, err = v.numField(gn, path, "micro_radius_m",
		g.MicroRadiusM, 0, 5, true, " m"); err != nil {
		return g, err
	}
	if n := gn.fields["env_intensity"]; n != nil && mode != mobility.Environmental {
		return g, v.fail(n, joinPath(path, "env_intensity"),
			"env_intensity only applies to environmental clients (mode is %q)", modeNode.str)
	}
	if g.EnvIntensity, _, err = v.numField(gn, path, "env_intensity",
		g.EnvIntensity, 0, 10, true, ""); err != nil {
		return g, err
	}

	if g.StartS, _, err = v.numField(gn, path, "start_s", 0, 0, spec.DurationS, false, " s"); err != nil {
		return g, err
	}
	if g.StartS >= spec.DurationS && g.StartS > 0 {
		return g, v.fail(gn.fields["start_s"], joinPath(path, "start_s"),
			"start_s %g s is not before the scenario end (%g s)", g.StartS, spec.DurationS)
	}
	if g.StartSpreadS, _, err = v.numField(gn, path, "start_spread_s",
		0, 0, spec.DurationS, false, " s"); err != nil {
		return g, err
	}
	if g.StartS+g.StartSpreadS > spec.DurationS {
		return g, v.fail(gn.fields["start_spread_s"], joinPath(path, "start_spread_s"),
			"start_s + start_spread_s = %g s exceeds the %g s duration",
			g.StartS+g.StartSpreadS, spec.DurationS)
	}

	if g.HomeAP, _, err = v.intField(gn, path, "home_ap", -1, -1, MaxHomeAP); err != nil {
		return g, err
	}
	if g.MotionAware, err = v.boolField(gn, path, "motion_aware", g.MotionAware); err != nil {
		return g, err
	}
	return g, nil
}
