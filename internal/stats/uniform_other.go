//go:build !amd64

package stats

// hasUniformLanes is false: the AVX2 uniform kernel exists only on amd64.
const hasUniformLanes = false

// uniformPairs4 matches the amd64 declaration so normFill compiles
// everywhere; unreachable because uniformExact starts from
// hasUniformLanes.
func uniformPairs4(dst *float64, n int, state uint64) int {
	panic("stats: uniformPairs4 without AVX2")
}
