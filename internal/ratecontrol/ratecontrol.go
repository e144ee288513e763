// Package ratecontrol implements the bit-rate adaptation algorithms the
// paper studies (§4):
//
//   - Atheros: a faithful re-implementation of the frame-based Atheros
//     MIMO rate adaptation the HP MSM 460 ships with — per-rate PER EWMA
//     (alpha 1/8), PER monotonicity across rates, immediate down-shift on
//     a missing Block ACK, and periodic probing of the next higher rate.
//   - MobilityAware: Atheros RA driven by the paper's Table 2 knobs —
//     per-mobility-state PER smoothing factor, retry count before
//     down-shifting, and probe interval.
//   - RapidSample: the sensor-hint scheme of Ravindranath et al. (paper
//     ref. [1]) — SampleRate-like behaviour when static, an aggressive
//     fast-sampling variant when a binary mobility hint fires.
//   - SoftRate: per-frame channel-quality feedback that steps the rate up
//     or down one notch (it can only indicate a direction, paper §4.3).
//   - ESNR: CSI feedback mapped through effective SNR directly to the
//     best rate in a single observation.
//
// All adapters implement Adapter and are driven frame-by-frame by the
// link simulator.
package ratecontrol

import (
	"sort"

	"mobiwlan/internal/core"
	"mobiwlan/internal/mac"
	"mobiwlan/internal/phy"
	"mobiwlan/internal/stats"
)

// Adapter selects the MCS for each frame and learns from its outcome.
type Adapter interface {
	// Name identifies the algorithm in experiment output.
	Name() string
	// SelectRate returns the MCS for the frame to be sent at time t.
	SelectRate(t float64) phy.MCS
	// OnResult feeds back the outcome of the frame.
	OnResult(t float64, res mac.FrameResult)
}

// StateAware is implemented by adapters that consume the classifier's
// mobility state (the AP pushes updates as classifications change).
type StateAware interface {
	SetState(s core.State)
}

// LinkConfig carries the PHY facts an adapter needs to rank rates.
type LinkConfig struct {
	Width      phy.ChannelWidth
	SGI        bool
	MPDUBytes  int
	MaxStreams int
}

// DefaultLinkConfig matches mac.NewLink.
func DefaultLinkConfig() LinkConfig {
	return LinkConfig{Width: phy.Width40, SGI: true, MPDUBytes: 1500, MaxStreams: 2}
}

// candidateRates returns the rate ladder the Atheros algorithm walks:
// usable MCS sorted by PHY rate, with single-stream MCS 5-7 and two-stream
// MCS 8 removed to keep PER monotonic along the ladder (paper §4.1).
func candidateRates(lc LinkConfig) []phy.MCS {
	skip := map[int]bool{5: true, 6: true, 7: true, 8: true}
	var out []phy.MCS
	for _, m := range phy.Usable(lc.MaxStreams) {
		if skip[m.Index] {
			continue
		}
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool {
		ri, rj := out[i].RateMbps(lc.Width, lc.SGI), out[j].RateMbps(lc.Width, lc.SGI)
		if ri != rj {
			return ri < rj
		}
		return phy.RequiredSNRdB(out[i]) < phy.RequiredSNRdB(out[j])
	})
	// Equal-rate rungs (e.g. 1-stream 16-QAM 1/2 vs 2-stream QPSK 1/2)
	// keep only the easier (lower required SNR) scheme.
	dedup := out[:0]
	for i, m := range out {
		if i > 0 && m.RateMbps(lc.Width, lc.SGI) == dedup[len(dedup)-1].RateMbps(lc.Width, lc.SGI) {
			continue
		}
		dedup = append(dedup, m)
	}
	return dedup
}

// AtherosParams are the three knobs the paper's mobility hints control.
type AtherosParams struct {
	// Alpha is the PER EWMA smoothing factor (default 1/8; larger weights
	// recent frames more).
	Alpha float64
	// RateRetries is how many consecutive Block-ACK-less frames are
	// retried at the current rate before shifting down (default 0:
	// shift immediately).
	RateRetries int
	// ProbeInterval is the minimum time between probes of the next
	// higher rate, in seconds.
	ProbeInterval float64
}

// DefaultAtherosParams returns the stock driver behaviour.
func DefaultAtherosParams() AtherosParams {
	return AtherosParams{Alpha: 1.0 / 8, RateRetries: 0, ProbeInterval: 0.1}
}

// Atheros is the frame-based Atheros MIMO rate adaptation (paper §4.1).
type Atheros struct {
	lc     LinkConfig
	params AtherosParams

	ladder     []phy.MCS
	per        []*stats.EWMA
	cur        int
	failStreak int
	lastProbe  float64
	probing    bool
	probeIdx   int
}

// NewAtheros builds the stock algorithm for a link.
func NewAtheros(lc LinkConfig) *Atheros {
	ladder := candidateRates(lc)
	a := &Atheros{
		lc:     lc,
		params: DefaultAtherosParams(),
		ladder: ladder,
		per:    make([]*stats.EWMA, len(ladder)),
		cur:    len(ladder) - 1, // starts at the highest rate (paper §4.1)
	}
	for i := range a.per {
		a.per[i] = stats.NewEWMA(a.params.Alpha)
	}
	return a
}

// Name implements Adapter.
func (a *Atheros) Name() string { return "atheros" }

// Params returns the currently active knobs.
func (a *Atheros) Params() AtherosParams { return a.params }

// SetParams swaps the knobs (used by the mobility-aware wrapper).
func (a *Atheros) SetParams(p AtherosParams) { a.params = p }

// Ladder exposes the candidate rate ladder (ascending PHY rate).
func (a *Atheros) Ladder() []phy.MCS { return a.ladder }

// CurrentIndex reports the position on the ladder.
func (a *Atheros) CurrentIndex() int { return a.cur }

// SelectRate implements Adapter.
func (a *Atheros) SelectRate(t float64) phy.MCS {
	if !a.probing && a.cur < len(a.ladder)-1 &&
		t-a.lastProbe >= a.params.ProbeInterval {
		a.probing = true
		a.probeIdx = a.cur + 1
		return a.ladder[a.probeIdx]
	}
	return a.ladder[a.cur]
}

// estThroughput is the algorithm's objective: rate * (1 - PER).
func (a *Atheros) estThroughput(i int) float64 {
	return a.ladder[i].RateMbps(a.lc.Width, a.lc.SGI) * (1 - a.per[i].Value())
}

// OnResult implements Adapter.
func (a *Atheros) OnResult(t float64, res mac.FrameResult) {
	idx := a.ladderIndex(res.MCS)
	if idx < 0 {
		return
	}
	instPER := 1.0
	if res.NMPDU > 0 {
		instPER = 1 - float64(res.Delivered)/float64(res.NMPDU)
	}
	a.per[idx].Alpha = a.params.Alpha
	a.per[idx].Update(instPER)
	// PER is assumed monotonically increasing along the ladder; clamp the
	// other rates' estimates accordingly (paper §4.1).
	for j := idx + 1; j < len(a.per); j++ {
		if a.per[j].Value() < a.per[idx].Value() {
			a.per[j].Set(a.per[idx].Value())
		}
	}
	for j := 0; j < idx; j++ {
		if a.per[j].Value() > a.per[idx].Value() {
			a.per[j].Set(a.per[idx].Value())
		}
	}

	if a.probing && idx == a.probeIdx {
		// Probe outcome: a clean probe overrides the pessimistic PER the
		// rung inherited from monotonicity clamping (that value was never
		// measured), then the rate moves up if the rung now looks better.
		a.probing = false
		a.lastProbe = t
		if res.BlockAck && instPER < 0.5 {
			a.per[idx].Set(instPER)
			if a.estThroughput(idx) > a.estThroughput(a.cur) {
				a.cur = idx
			}
		}
		return
	}

	if !res.BlockAck {
		// Complete loss: retry at the current rate up to RateRetries
		// times, then shift down.
		a.failStreak++
		if a.failStreak > a.params.RateRetries && a.cur > 0 {
			a.cur--
			a.failStreak = 0
		}
		return
	}
	a.failStreak = 0
	// High smoothed PER at the current rate: fall back if the next lower
	// rate promises more goodput.
	if a.per[a.cur].Value() > 0.4 && a.cur > 0 &&
		a.estThroughput(a.cur-1) > a.estThroughput(a.cur) {
		a.cur--
	}
}

func (a *Atheros) ladderIndex(m phy.MCS) int {
	for i, c := range a.ladder {
		if c.Index == m.Index {
			return i
		}
	}
	return -1
}
