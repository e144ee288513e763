// Package parallel provides the deterministic fan-out primitive behind the
// experiment suite: a bounded worker pool that runs independent trials
// concurrently and returns their results in index order.
//
// Determinism contract: a trial function must derive ALL of its randomness
// from its trial index (e.g. stats.NewRNG(seed).Split(trialIndex)) and must
// not mutate state shared with other trials. Under that contract the results
// of RunTrials are byte-identical regardless of the worker count or the
// scheduling order, so jobs=1 and jobs=DefaultJobs() regenerate the same
// tables and figures.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultJobs returns the default worker count: runtime.GOMAXPROCS(0),
// the number of goroutines that can run Go code at once. A process whose
// GOMAXPROCS is set below the CPU count therefore gets no more workers
// than it can run, and never pays handoffs to workers that must wait for
// a processor.
func DefaultJobs() int { return runtime.GOMAXPROCS(0) }

// RunTrials runs fn(0), fn(1), ..., fn(n-1) on up to jobs concurrent
// workers and returns the n results in index order. jobs <= 0 selects
// DefaultJobs(). fn must follow the package determinism contract; it is
// called exactly once per index, from at most jobs goroutines at a time.
//
// If a trial panics, the panic propagates out of RunTrials on the
// caller's goroutine (with the first panic value when several trials
// panic) after the remaining workers have drained — it never kills
// the process from inside a worker and never deadlocks.
func RunTrials[T any](n, jobs int, fn func(trial int) T) []T {
	if n <= 0 {
		return nil
	}
	if jobs <= 0 {
		jobs = DefaultJobs()
	}
	if jobs > n {
		jobs = n
	}
	out := make([]T, n)
	if jobs == 1 {
		for i := range out {
			out[i] = fn(i)
		}
		return out
	}
	// Work-stealing by atomic counter: workers pull the next unclaimed
	// index, so slow trials don't stall a statically-partitioned shard.
	//
	// A panicking trial must not kill the process from a worker
	// goroutine: the first panic value is captured, the remaining
	// workers drain, and RunTrials re-panics on the caller's
	// goroutine (wg.Wait orders the capture before the re-panic).
	var next atomic.Int64
	var wg sync.WaitGroup
	var panicOnce sync.Once
	var panicVal any
	wg.Add(jobs)
	for w := 0; w < jobs; w++ {
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicOnce.Do(func() { panicVal = r })
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	if panicVal != nil {
		panic(panicVal)
	}
	return out
}

// Flatten concatenates per-trial result slices in trial order — the shape
// most experiment loops produce (each trial contributes zero or more
// samples, and downstream statistics consume one flat slice).
func Flatten[T any](parts [][]T) []T {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	out := make([]T, 0, total)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}
