// Package rngok builds its generator the sanctioned way, by splitting a
// stats.RNG derived from the experiment seed. mobilint must report
// nothing here.
package rngok

import "mobiwlan/internal/stats"

// Source derives a private stream from the experiment seed.
func Source(seed uint64) *stats.RNG {
	return stats.NewRNG(seed).Split(1)
}
