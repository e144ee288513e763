//go:build !amd64

package buildtags

// Lanes is the scalar fallback everywhere else.
func Lanes() int { return 1 }
