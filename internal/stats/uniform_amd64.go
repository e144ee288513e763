package stats

import "mobiwlan/internal/fastmath"

// hasUniformLanes reports whether this CPU and OS run the AVX2 uniform
// kernel (uniform_amd64.s).
var hasUniformLanes = fastmath.HasAVX2

// uniformPairs4 is the uniform kernel (uniform_amd64.s): it writes the
// (u, 2*Pi*v) pairs NormFill draws from state, four pairs to a block,
// while a whole block of n elements remains and the block holds no zero
// u, and returns how many elements it wrote. Callers must pass n <= the
// length of the slice dst heads, and reach it only through normFill so
// the uniformExact gate applies.
//
//go:noescape
//mobilint:hotpath
func uniformPairs4(dst *float64, n int, state uint64) int
