// Package rngbad constructs a random generator from math/rand, hiding a
// second seed from the experiment Config. The import is the one
// finding: the constructor calls below it add none.
package rngbad

import "math/rand" // want math-rand

// Source builds a private generator stream.
func Source(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}
