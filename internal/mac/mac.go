// Package mac simulates 802.11n A-MPDU frame exchanges over the channel
// model: the receiver equalizes the whole aggregate with the channel
// estimated from the preamble, so subframes late in a long aggregate see a
// stale estimate and fail under device mobility — the mechanism behind the
// paper's mobility-aware frame aggregation (§5).
package mac

import (
	"math"

	"mobiwlan/internal/channel"
	"mobiwlan/internal/csi"
	"mobiwlan/internal/phy"
	"mobiwlan/internal/stats"
)

// FrameResult reports the outcome of one A-MPDU transmit opportunity.
type FrameResult struct {
	// Start is the transmission start time in seconds.
	Start float64
	// MCS is the rate the frame was sent at.
	MCS phy.MCS
	// NMPDU is the number of aggregated subframes.
	NMPDU int
	// Delivered is how many subframes the Block ACK acknowledged.
	Delivered int
	// Airtime is the full exchange duration including overheads.
	Airtime float64
	// BlockAck is false when every subframe was lost (the transmitter sees
	// no Block ACK at all — the case Atheros RA treats as severe).
	BlockAck bool
	// EffSNRdB is the effective SNR of the receiver's channel estimate at
	// frame start. Exposed for the idealized SNR/CSI-based rate-control
	// baselines; the frame-based Atheros algorithm must not read it.
	EffSNRdB float64
	// CSI is the receiver's channel estimate at frame start (same caveat).
	// It aliases the link's reused measurement buffer: the matrix is valid
	// only until the link's next Transmit call; callers that need to keep
	// it must copy it.
	CSI *csi.Matrix
}

// Goodput returns the delivered MAC payload bits of the frame.
func (r FrameResult) Goodput(mpduBytes int) float64 {
	return float64(r.Delivered * mpduBytes * 8)
}

// Link is a unidirectional AP-to-client MAC/PHY over a channel model.
type Link struct {
	// Chan is the underlying channel.
	Chan *channel.Model
	// Timing holds the MAC constants.
	Timing phy.Timing
	// Width and SGI set the PHY configuration for rate computation.
	Width phy.ChannelWidth
	// SGI selects the short guard interval.
	SGI bool
	// MPDUBytes is the payload size of each aggregated subframe.
	MPDUBytes int
	// Met, when set, observes every Transmit outcome (shared handles,
	// concurrency-safe); nil costs one branch per frame.
	Met *Metrics

	rng *stats.RNG

	// Reused channel-matrix buffers for the per-frame measurement and the
	// channel-aging anchors, so steady-state Transmit calls do not allocate.
	sampleCSI, h0, hTau *csi.Matrix
}

// NewLink builds a MAC link over a channel with the paper's PHY settings
// (40 MHz, short GI, 1500-byte MPDUs).
func NewLink(ch *channel.Model, rng *stats.RNG) *Link {
	return &Link{
		Chan:      ch,
		Timing:    phy.DefaultTiming(),
		Width:     phy.Width40,
		SGI:       true,
		MPDUBytes: 1500,
		rng:       rng,
	}
}

// Transmit sends one A-MPDU of nMPDU subframes at the given MCS starting
// at time t and returns the outcome. Subframe k is decoded against the
// channel estimate taken at frame start; its post-equalization SINR decays
// with the true channel's drift over the subframe's offset into the frame.
//
//mobilint:hotpath
func (l *Link) Transmit(t float64, mcs phy.MCS, nMPDU int) FrameResult {
	if nMPDU < 1 {
		nMPDU = 1
	}
	sample := l.Chan.MeasureInto(t, l.sampleCSI)
	l.sampleCSI = sample.CSI
	effSNR := phy.EffectiveSNRdB(sample.CSI, sample.SNRdB)
	res := FrameResult{
		Start:    t,
		MCS:      mcs,
		NMPDU:    nMPDU,
		Airtime:  phy.ExchangeAirtime(l.Timing, mcs, l.Width, l.SGI, nMPDU*l.MPDUBytes, nMPDU),
		EffSNRdB: effSNR,
		CSI:      sample.CSI,
	}
	payloadDur := phy.PayloadDuration(mcs, l.Width, l.SGI, nMPDU*l.MPDUBytes, nMPDU)

	// Channel aging: correlate the true channel at a few anchor offsets
	// within the frame and interpolate per subframe.
	l.h0 = l.Chan.ResponseInto(t, l.h0)
	const anchors = 5
	var rhoAt [anchors]float64
	for a := 0; a < anchors; a++ {
		tau := payloadDur * float64(a) / float64(anchors-1)
		if a == 0 {
			rhoAt[a] = 1
			continue
		}
		l.hTau = l.Chan.ResponseInto(t+l.Timing.PLCPPreamble+tau, l.hTau)
		rhoAt[a] = csi.TemporalCorrelation(l.h0, l.hTau)
	}
	// The linear SNR is a frame invariant, and PER is a pure function of
	// the subframe SINR, so a subframe whose SINR has the bits of the
	// previous one's reuses its PER (every subframe of a static link).
	snr := math.Pow(10, effSNR/10)
	var prevSINR, per float64
	for k := 0; k < nMPDU; k++ {
		frac := (float64(k) + 0.5) / float64(nMPDU) * float64(anchors-1)
		lo := int(frac)
		if lo >= anchors-1 {
			lo = anchors - 2
		}
		w := frac - float64(lo)
		rho := rhoAt[lo]*(1-w) + rhoAt[lo+1]*w
		sinr := phy.StaleSINRdBLin(effSNR, snr, rho)
		if k == 0 || math.Float64bits(sinr) != math.Float64bits(prevSINR) {
			per = phy.PER(mcs, sinr, l.MPDUBytes)
			prevSINR = sinr
		}
		if !l.rng.Bool(per) {
			res.Delivered++
		}
	}
	res.BlockAck = res.Delivered > 0
	l.Met.observe(res)
	return res
}
