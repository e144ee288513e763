package fastmath

// HasAVX2 reports whether this CPU and OS run AVX2 with YMM state
// enabled. internal/channel gates its fused chain sweep on it.
var HasAVX2, hasFMA = cpuFeatures()

// hasLanes reports whether this CPU and OS run the AVX2 and FMA
// instructions the lane kernels use (lanes_amd64.s).
var hasLanes = HasAVX2 && hasFMA

// cpuFeatures reports AVX2 and FMA, each with OS-enabled YMM state; it is
// the module's one CPUID routine.
func cpuFeatures() (avx2, fma bool)

// sincos4, log4, exp4 and boxMuller4 are the lane kernels
// (lanes_amd64.s). Each runs blocks from the start of x while a whole
// block of n elements remains and every lane of the block is in its
// domain, and returns how many elements it wrote. A block is four
// elements, or four (u, a) pairs for boxMuller4, which writes in place.
// Callers must pass n <= len of every slice the pointers head, and reach
// them only through the slice entry points.
//
//go:noescape
//mobilint:hotpath
func sincos4(x, sin, cos *float64, n int) int

//go:noescape
//mobilint:hotpath
func log4(x, out *float64, n int) int

//go:noescape
//mobilint:hotpath
func exp4(x, out *float64, n int) int

//go:noescape
//mobilint:hotpath
func boxMuller4(x *float64, n int) int
