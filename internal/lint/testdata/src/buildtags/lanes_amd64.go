// Package buildtags declares one function per target, as the SIMD
// kernels do: the loader must pick the files go build picks, or the two
// declarations collide.
package buildtags

// Lanes is the vector width on amd64.
func Lanes() int { return 4 }
