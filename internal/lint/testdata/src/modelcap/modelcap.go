// Package modelcap exercises goroutine-capture's model rule: a
// channel.Model memoizes its frequency response in a single-owner
// cache, so a closure that reaches a goroutine — by a go statement or
// as parallel.RunTrials' trial function — must not capture a model, or
// a lock-free holder such as mac.Link, from its spawner.
package modelcap

import (
	"sync"

	"mobiwlan/internal/channel"
	"mobiwlan/internal/mac"
	"mobiwlan/internal/mobility"
	"mobiwlan/internal/parallel"
	"mobiwlan/internal/stats"
)

// owner bundles a model with the mutex that serializes access — the
// synchronized shape the check accepts.
type owner struct {
	mu sync.Mutex
	ch *channel.Model
}

// Leak spawns a goroutine that shares the spawner's model.
func Leak(m *channel.Model, out chan<- float64) {
	go func() {
		out <- m.MeanRSSI(0) // want goroutine-capture
	}()
}

// LeakLink captures a mac.Link, a lock-free struct holding the model
// one field deep.
func LeakLink(l *mac.Link, out chan<- float64) {
	go func() {
		out <- l.Chan.MeanRSSI(0) // want goroutine-capture
	}()
}

// Handoff transfers the model as a call argument: ownership moves to
// the goroutine, allowed.
func Handoff(m *channel.Model, out chan<- float64) {
	go probe(m, out)
}

func probe(m *channel.Model, out chan<- float64) {
	out <- m.MeanRSSI(0)
}

// Synchronized captures an owner whose model access is mutex-guarded:
// allowed.
func Synchronized(o *owner, out chan<- float64) {
	go func() {
		o.mu.Lock()
		defer o.mu.Unlock()
		out <- o.ch.MeanRSSI(0)
	}()
}

// Fresh builds its own model inside the goroutine, from a
// split-off RNG — the pattern the
// worker pool and the controller example use: allowed.
func Fresh(cfg channel.Config, scen *mobility.Scenario, rng *stats.RNG, out chan<- float64) {
	child := rng.Split(1)
	go func() {
		m := channel.New(cfg, scen, child)
		out <- m.MeanRSSI(0)
	}()
}

// SharedTrials hands one model to every trial: RunTrials runs the
// trial function on worker goroutines, so the trials race on it.
func SharedTrials(m *channel.Model, jobs int) []float64 {
	return parallel.RunTrials(4, jobs, func(trial int) float64 {
		return m.MeanRSSI(float64(trial)) // want goroutine-capture
	})
}

// SharedLinkTrials shares a mac.Link, and so its model, likewise.
func SharedLinkTrials(l *mac.Link, jobs int) []float64 {
	return parallel.RunTrials(4, jobs, func(trial int) float64 {
		return l.Chan.MeanRSSI(float64(trial)) // want goroutine-capture
	})
}

// TrialModels builds one model per trial from a split-off RNG, the
// experiments' pattern: allowed.
func TrialModels(cfg channel.Config, scen *mobility.Scenario, rng *stats.RNG, jobs int) []float64 {
	return parallel.RunTrials(4, jobs, func(trial int) float64 {
		return channel.New(cfg, scen, rng.Split(uint64(trial))).MeanRSSI(0)
	})
}
