package fastmath

// hasLanes reports whether this CPU and OS run the AVX2 and FMA
// instructions the lane kernels use (lanes_amd64.s).
var hasLanes = cpuHasAVX2FMA()

// cpuHasAVX2FMA reports AVX2, FMA and OS-enabled YMM state.
func cpuHasAVX2FMA() bool

// sincos4, log4 and exp4 are the lane kernels (lanes_amd64.s). Each runs
// blocks of four from the start of x while at least four of n elements
// remain and every lane of the block is in its domain, and returns how
// many elements it wrote. Callers must pass n <= len of every slice the
// pointers head, and reach them only through the slice entry points.
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
