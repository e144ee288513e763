package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// updateGolden rewrites the committed golden traces from the current tree:
//
//	go test ./internal/experiments -run TestGoldenTraces -update
//
// Run it without -short so the slow cases regenerate too.
var updateGolden = flag.Bool("update", false, "rewrite golden trace files under testdata/")

// goldenCases pins a representative subset of the experiment registry at
// reduced scale: the classification confusion matrix (Table 1), the
// similarity CDFs the thresholds come from (Fig 2b), the sampling-period
// sweep (Fig 6a), and a full closed-loop rate-control comparison (Fig 9a).
// Together they cover the mobility → channel → CSI → classifier →
// protocol pipeline end to end, so any change to the numeric behaviour of
// those layers shows up as a byte-level diff here.
//
// RNG-draw-order note: deduplicating the current AP's per-tick measurement
// in sim.RunWLAN removed one MeasureInto (a full set of CSI-noise
// Gaussians plus one RSSI draw) per roaming tick from the current AP's
// noise stream, so any golden that exercised RunWLAN would have shifted.
// None of the cases here do — the committed files were regenerated with
// -update after that change and came out byte-identical. sim.RunRoaming
// (fig7b, abl-80211r) shares RunWLAN's roaming tick but still takes that
// separate serving-AP reading before each tick's observation; dropping it
// would move both roaming goldens, so it waits for a model change. The
// coherence-aware channel cache, by contrast, is bit-identical by design
// (it never touches a noise RNG) and left these files unchanged with the
// cache enabled.
var goldenCases = []struct {
	id    string
	scale float64
	slow  bool // skipped under -short; the full tier-1 run covers them
}{
	{id: "table1", scale: 0.15},
	{id: "fig2b", scale: 0.2},
	{id: "fig6a", scale: 0.15, slow: true},
	{id: "fig9a", scale: 0.1, slow: true},
	// Shared-medium contention canon: two clients fighting over one AP
	// (pure CSMA/CA collisions) and two co-channel out-of-CS-range APs
	// (OBSS interference). Their MPDU reconciliation lines pin the
	// medium's conservation laws byte-for-byte.
	{id: "cont1ap", scale: 0.2},
	{id: "obss2ap", scale: 0.2},
	// Mode x speed x CSI-SNR robustness sweep: pins the confusion structure
	// of the paper's thresholds away from the calibrated operating point.
	{id: "robust", scale: 0.12, slow: true},
	// Roaming canon: the three policies' throughput CDFs over cross-floor
	// walks, and motion-aware roaming under stock vs 802.11r handoff cost.
	// Both run sim.RunRoaming through scans and handoffs.
	{id: "fig7b", scale: 0.15},
	{id: "abl-80211r", scale: 0.15},
	// ToF canon: the per-second median series (Fig 4), the classifier's
	// ToF-window sweep (Fig 6b), and the AoA extension riding on the base
	// classifier's trend test (abl-orbit).
	{id: "fig4", scale: 0.15},
	{id: "fig6b", scale: 0.15},
	{id: "abl-orbit", scale: 0.15, slow: true},
}

// goldenSeed is fixed and disjoint from the calibration seeds used inside
// the experiments themselves.
const goldenSeed = 42

// renderGolden flattens a Result into the canonical text form stored under
// testdata/: the rendered table plus the headline notes. Everything in it
// comes from deterministic %-formatting, so equality is byte equality.
func renderGolden(res Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "id: %s\n", res.ID)
	fmt.Fprintf(&b, "title: %s\n", res.Title)
	fmt.Fprintf(&b, "xlabel: %s\n", res.XLabel)
	b.WriteString(res.Text)
	for _, n := range res.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

func goldenPath(id string) string {
	return filepath.Join("testdata", "golden_"+id+".txt")
}

// TestGoldenTraces regenerates each pinned experiment at jobs=1 and jobs=4
// and asserts the output is byte-identical to the committed golden. The
// two jobs values double as a regression test of the parallel determinism
// contract on real experiments; the byte comparison proves allocation
// refactors of the channel/CSI hot path changed no numbers.
func TestGoldenTraces(t *testing.T) {
	for _, tc := range goldenCases {
		tc := tc
		t.Run(tc.id, func(t *testing.T) {
			if tc.slow && testing.Short() && !*updateGolden {
				t.Skipf("slow golden %s skipped in -short mode", tc.id)
			}
			run, ok := Get(tc.id)
			if !ok {
				t.Fatalf("experiment %q not registered", tc.id)
			}
			path := goldenPath(tc.id)
			for _, jobs := range []int{1, 4} {
				res := run(Config{Seed: goldenSeed, Scale: tc.scale, Jobs: jobs})
				got := renderGolden(res)
				if *updateGolden && jobs == 1 {
					if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
						t.Fatalf("mkdir testdata: %v", err)
					}
					if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
						t.Fatalf("write golden: %v", err)
					}
					t.Logf("rewrote %s (%d bytes)", path, len(got))
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing golden (regenerate with -update): %v", err)
				}
				if got != string(want) {
					t.Errorf("%s at jobs=%d diverges from %s:\n%s", tc.id, jobs, path, firstDiff(string(want), got))
				}
			}
		})
	}
}

// firstDiff returns a compact description of the first differing line.
func firstDiff(want, got string) string {
	wl := strings.Split(want, "\n")
	gl := strings.Split(got, "\n")
	n := len(wl)
	if len(gl) < n {
		n = len(gl)
	}
	for i := 0; i < n; i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("line %d:\n  want: %q\n  got:  %q", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("line counts differ: want %d, got %d", len(wl), len(gl))
}
