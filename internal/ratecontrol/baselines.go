package ratecontrol

import (
	"mobiwlan/internal/core"
	"mobiwlan/internal/mac"
	"mobiwlan/internal/phy"
	"mobiwlan/internal/stats"
)

// RapidSample is the sensor-hint scheme from "Improving Wireless Network
// Performance Using Sensor Hints" (paper ref. [1]): a binary
// mobile/static hint selects between SampleRate-style behaviour (static:
// long-window averaging, occasional sampling) and RapidSample (mobile:
// drop immediately on loss, re-probe higher rates after a short hold).
// Unlike the paper's scheme, it cannot distinguish micro from macro or
// toward from away.
type RapidSample struct {
	lc     LinkConfig
	ladder []phy.MCS
	mobile bool

	cur        int
	ewma       []*stats.EWMA
	frameCount int
	lastUp     float64
}

// NewRapidSample builds the adapter.
func NewRapidSample(lc LinkConfig) *RapidSample {
	ladder := candidateRates(lc)
	r := &RapidSample{
		lc:     lc,
		ladder: ladder,
		ewma:   make([]*stats.EWMA, len(ladder)),
		cur:    len(ladder) / 2,
	}
	for i := range r.ewma {
		r.ewma[i] = stats.NewEWMA(0.1)
	}
	return r
}

// Name implements Adapter.
func (r *RapidSample) Name() string { return "rapidsample" }

// SetState implements StateAware; only the binary device-mobility bit is
// consumed (that is all an accelerometer hint provides).
func (r *RapidSample) SetState(s core.State) {
	r.mobile = s == core.StateMicro || s == core.StateMacroAway || s == core.StateMacroToward
}

// SelectRate implements Adapter.
func (r *RapidSample) SelectRate(t float64) phy.MCS {
	r.frameCount++
	if r.mobile {
		// RapidSample: after a short hold at a reduced rate, retry the
		// next higher rate.
		if r.cur < len(r.ladder)-1 && t-r.lastUp > 0.05 {
			return r.ladder[r.cur+1]
		}
		return r.ladder[r.cur]
	}
	// SampleRate-ish: every 10th frame samples a neighbouring rate.
	if r.frameCount%10 == 0 && r.cur < len(r.ladder)-1 {
		return r.ladder[r.cur+1]
	}
	return r.ladder[r.cur]
}

// OnResult implements Adapter.
func (r *RapidSample) OnResult(t float64, res mac.FrameResult) {
	idx := -1
	for i, c := range r.ladder {
		if c.Index == res.MCS.Index {
			idx = i
			break
		}
	}
	if idx < 0 {
		return
	}
	instPER := 1.0
	if res.NMPDU > 0 {
		instPER = 1 - float64(res.Delivered)/float64(res.NMPDU)
	}
	r.ewma[idx].Update(instPER)
	if r.mobile {
		if !res.BlockAck || instPER > 0.5 {
			// Immediate drop on failure.
			if r.cur > 0 {
				r.cur--
			}
			r.lastUp = t
		} else if idx > r.cur {
			// Successful upward retry: adopt it.
			r.cur = idx
			r.lastUp = t
		}
		return
	}
	// Static: move to the best estimated-throughput rate among known ones.
	best, bestTput := r.cur, -1.0
	for i := range r.ladder {
		if !r.ewma[i].Initialized() && i != r.cur {
			continue
		}
		tput := r.ladder[i].RateMbps(r.lc.Width, r.lc.SGI) * (1 - r.ewma[i].Value())
		if tput > bestTput {
			best, bestTput = i, tput
		}
	}
	r.cur = best
}

// SoftRate models per-frame channel feedback from the client (paper ref.
// [10]): the client's PHY reports whether the current rate's error rate is
// too high or comfortably low, and the AP steps one rate down or up. It
// adapts within a frame's turnaround but only ever moves one notch.
type SoftRate struct {
	lc     LinkConfig
	ladder []phy.MCS
	cur    int
}

// NewSoftRate builds the adapter.
func NewSoftRate(lc LinkConfig) *SoftRate {
	ladder := candidateRates(lc)
	return &SoftRate{lc: lc, ladder: ladder, cur: 0}
}

// Name implements Adapter.
func (s *SoftRate) Name() string { return "softrate" }

// SelectRate implements Adapter.
func (s *SoftRate) SelectRate(float64) phy.MCS { return s.ladder[s.cur] }

// OnResult implements Adapter.
func (s *SoftRate) OnResult(t float64, res mac.FrameResult) {
	// The client PHY evaluates the observed channel against the current
	// rate: step down if the frame's SNR cannot support it, step up if it
	// comfortably supports the next rate.
	snr := res.EffSNRdB
	cur := s.ladder[s.cur]
	if snr < phy.RequiredSNRdB(cur) && s.cur > 0 {
		s.cur--
		return
	}
	if s.cur < len(s.ladder)-1 {
		next := s.ladder[s.cur+1]
		if snr > phy.RequiredSNRdB(next)+1 {
			s.cur++
		}
	}
}

// ESNR models CSI-feedback rate selection (paper ref. [9]): the client
// reports CSI; the AP computes the effective SNR and jumps directly to the
// best-supported rate in one observation — the strongest baseline in the
// paper's Fig. 9(b), at the cost of per-client calibration the paper's
// scheme avoids.
type ESNR struct {
	lc      LinkConfig
	ladder  []phy.MCS
	current phy.MCS
	// MarginDB backs the selection off the exact threshold (calibration
	// slack).
	MarginDB float64
}

// NewESNR builds the adapter.
func NewESNR(lc LinkConfig) *ESNR {
	// The 2.5 dB margin models the per-client calibration the scheme
	// requires (paper §4.3): it absorbs estimation error and the channel
	// drift between the observation and the end of the next frame.
	return &ESNR{lc: lc, ladder: candidateRates(lc), current: phy.ByIndex(0), MarginDB: 2.5}
}

// Name implements Adapter.
func (e *ESNR) Name() string { return "esnr" }

// SelectRate implements Adapter.
func (e *ESNR) SelectRate(float64) phy.MCS { return e.current }

// OnResult implements Adapter.
func (e *ESNR) OnResult(t float64, res mac.FrameResult) {
	if res.CSI == nil {
		return
	}
	// res.EffSNRdB is the effective SNR computed from the fed-back CSI —
	// exactly what the ESNR scheme derives at the client.
	esnr := res.EffSNRdB
	best := e.ladder[0]
	for _, m := range e.ladder {
		if esnr >= phy.RequiredSNRdB(m)+e.MarginDB {
			best = m
		}
	}
	e.current = best
}
