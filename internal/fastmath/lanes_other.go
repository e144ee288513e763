//go:build !amd64

package fastmath

// HasAVX2 and hasLanes are false: the AVX2 kernels exist only on amd64,
// so every other platform runs the portable code.
const (
	HasAVX2  = false
	hasLanes = false
)

// The kernels match the amd64 declarations so the slice entry points
// compile everywhere; unreachable because every gate starts from hasLanes.

func sincos4(x, sin, cos *float64, n int) int { panic("fastmath: sincos4 without AVX2") }

func log4(x, out *float64, n int) int { panic("fastmath: log4 without AVX2") }

func exp4(x, out *float64, n int) int { panic("fastmath: exp4 without AVX2") }

func boxMuller4(x *float64, n int) int { panic("fastmath: boxMuller4 without AVX2") }
