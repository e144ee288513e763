package beamforming

import (
	"testing"

	"mobiwlan/internal/stats"
)

func randomRows(rng *stats.RNG, n int) [][]complex128 {
	rows := make([][]complex128, n)
	for u := range rows {
		rows[u] = make([]complex128, n)
		for i := range rows[u] {
			rows[u][i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
	}
	return rows
}

// TestWeightsIntoMatchesZFWeights pins the buffer-reuse contract: a
// solver reused across differently-valued systems, writing into the same
// buffer, reproduces bit for bit the zero-forcing weights a fresh solver
// writes into a nil buffer.
func TestWeightsIntoMatchesZFWeights(t *testing.T) {
	rng := stats.NewRNG(21)
	var solver ZFSolver
	var w [][]complex128
	for trial := 0; trial < 20; trial++ {
		rows := randomRows(rng, 3)
		var fresh ZFSolver
		want, wantOK := fresh.WeightsInto(rows, nil)
		var ok bool
		w, ok = solver.WeightsInto(rows, w)
		if !ok || !wantOK {
			t.Fatalf("trial %d: ok=%v fresh ok=%v", trial, ok, wantOK)
		}
		for u := range want {
			for i := range want[u] {
				if want[u][i] != w[u][i] {
					t.Fatalf("trial %d user %d entry %d: %v vs %v",
						trial, u, i, want[u][i], w[u][i])
				}
			}
		}
	}
}

// TestWeightsIntoRejectsBadSystems checks the caller keeps its buffer on
// singular and non-square inputs.
func TestWeightsIntoRejectsBadSystems(t *testing.T) {
	var solver ZFSolver
	seed := make([][]complex128, 2)
	seed[0] = []complex128{1, 0}
	seed[1] = []complex128{0, 1}
	w, ok := solver.WeightsInto(seed, nil)
	if !ok {
		t.Fatal("identity system should be solvable")
	}

	singular := [][]complex128{{1, 1}, {1, 1}}
	w2, ok := solver.WeightsInto(singular, w)
	if ok {
		t.Fatal("singular system reported ok")
	}
	if len(w2) != len(w) || cap(w2) != cap(w) {
		t.Fatal("caller's buffer not returned on singular system")
	}

	nonSquare := [][]complex128{{1, 0, 0}, {0, 1, 0}}
	if _, ok := solver.WeightsInto(nonSquare, w2); ok {
		t.Fatal("non-square system reported ok")
	}
}
