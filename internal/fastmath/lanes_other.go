//go:build !amd64

package fastmath

// hasLanes is false: the lane kernels exist only on amd64, so every other
// platform runs the library for every element.
const hasLanes = false

// The kernels match the amd64 declarations so the slice entry points
// compile everywhere; unreachable because every gate starts from hasLanes.

func sincos4(x, sin, cos *float64, n int) int { panic("fastmath: sincos4 without AVX2") }

func log4(x, out *float64, n int) int { panic("fastmath: log4 without AVX2") }

func exp4(x, out *float64, n int) int { panic("fastmath: exp4 without AVX2") }
