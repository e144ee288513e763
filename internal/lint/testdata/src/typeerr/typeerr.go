// Package typeerr does not type-check: mobilint must refuse to lint it
// instead of running its checks on partial type information.
package typeerr

import "mobiwlan/internal/stats"

// Stream splits without the label Split requires.
func Stream(seed uint64) *stats.RNG {
	return stats.NewRNG(seed).Split()
}
