// Package rngflow exercises goroutine-capture's RNG rule: a *stats.RNG
// must be Split before it crosses a goroutine or worker-pool boundary,
// traced interprocedurally through function-typed parameters.
package rngflow

import (
	"sync"

	"mobiwlan/internal/stats"
)

// BadCapture draws from a captured parent RNG inside a spawned
// closure: racy and order-dependent.
func BadCapture(rng *stats.RNG, out chan<- float64) {
	go func() {
		out <- rng.Float64() // want goroutine-capture
	}()
}

// BadHandoff passes the un-split parent into a spawned worker.
func BadHandoff(rng *stats.RNG, out chan<- float64) {
	go draw(rng, out) // want goroutine-capture
}

func draw(r *stats.RNG, out chan<- float64) { out <- r.Float64() }

// pool mimics parallel.RunTrials: fn escapes onto worker goroutines,
// which the check must discover through the call graph.
func pool(n int, fn func(i int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) { defer wg.Done(); fn(i) }(i)
	}
	wg.Wait()
}

// BadPool draws from the shared parent inside a pool closure.
func BadPool(rng *stats.RNG, out []float64) {
	pool(len(out), func(i int) {
		out[i] = rng.Float64() // want goroutine-capture
	})
}

// GoodSplitBefore hands the goroutine its own split-off child.
func GoodSplitBefore(rng *stats.RNG, out chan<- float64) {
	child := rng.Split(1)
	go func() {
		out <- child.Float64()
	}()
}

// GoodSplitInside captures the parent but only to Split it — Split
// derives a child without advancing the parent, the repo's worker
// idiom.
func GoodSplitInside(rng *stats.RNG, out []float64) {
	pool(len(out), func(i int) {
		child := rng.Split(uint64(i))
		out[i] = child.Float64()
	})
}

// GoodForward hands the parent to a helper that only splits it, so
// the handoff is safe even across the pool boundary.
func GoodForward(rng *stats.RNG, out []float64) {
	pool(len(out), func(i int) {
		out[i] = splitDraw(rng, uint64(i))
	})
}

func splitDraw(parent *stats.RNG, label uint64) float64 {
	return parent.Split(label).Float64()
}

// Sequential use of the parent on one goroutine is always fine.
func GoodSequential(rng *stats.RNG, out []float64) {
	for i := range out {
		out[i] = rng.Float64()
	}
}
