package phy

import "math"

// The error model abstracts the coded 802.11n link as a per-MCS BER
// "waterfall": below the scheme's required SNR the coded bit error rate
// rises steeply, above it the link is effectively clean. The waterfall is
// parameterized by a required-SNR threshold per (constellation, code rate)
// and a slope, calibrated against published 802.11n link curves. Spatial
// multiplexing without SVD precoding needs extra SNR per additional stream
// for the linear receiver to separate the streams.

// requiredSNRdB is the per-stream SNR at which the coded BER falls to
// Q(5.2) = 0.5*erfc(5.2/sqrt2) ~ 1e-7 (waterfallCenterOffsetDB) for each of
// the 8 base schemes (values typical of 802.11n receivers).
var requiredSNRdB = []float64{2, 5, 8, 11, 15, 19, 21, 23}

// streamPenaltyDB is the extra SNR needed per additional spatial stream.
const streamPenaltyDB = 3.5

// waterfallSlopeDB controls how quickly BER falls around the threshold.
// Convolutionally coded 802.11 links drop from BER 1e-2 to 1e-8 within
// 2-3 dB, so the slope is steep.
const waterfallSlopeDB = 0.8

// waterfallCenterOffsetDB places the waterfall center below the
// reliability point so that RequiredSNRdB lands at coded BER ~1e-7
// (erfc(5.2/sqrt2)/2).
const waterfallCenterOffsetDB = 5.2 * waterfallSlopeDB

// RequiredSNRdB returns the SNR at which the MCS becomes reliable
// (coded BER ~1e-7 per stream, including the multi-stream penalty).
func RequiredSNRdB(m MCS) float64 {
	base := requiredSNRdB[m.Index%8]
	return base + float64(m.Streams-1)*streamPenaltyDB
}

// CodedBER returns the post-decoding bit error rate of the MCS at the given
// SNR in dB.
func CodedBER(m MCS, snrDB float64) float64 {
	x := (snrDB - (RequiredSNRdB(m) - waterfallCenterOffsetDB)) / waterfallSlopeDB
	ber := 0.5 * math.Erfc(x/math.Sqrt2)
	if ber > 0.5 {
		ber = 0.5
	}
	return ber
}

// PER returns the packet error rate for a packet of lengthBytes at the
// given SNR: the probability that any of its bits is decoded wrong.
func PER(m MCS, snrDB float64, lengthBytes int) float64 {
	if lengthBytes <= 0 {
		return 0
	}
	ber := CodedBER(m, snrDB)
	if ber <= 0 {
		return 0
	}
	bits := float64(8 * lengthBytes)
	// 1 - (1-ber)^bits, computed stably.
	per := -math.Expm1(bits * math.Log1p(-ber))
	if per < 0 {
		per = 0
	}
	if per > 1 {
		per = 1
	}
	return per
}

// Throughput returns the expected MAC goodput of the MCS at the given SNR
// for packets of lengthBytes: rate * (1 - PER). This is the objective the
// Atheros rate adaptation maximizes (paper §4.1).
func Throughput(m MCS, w ChannelWidth, sgi bool, snrDB float64, lengthBytes int) float64 {
	return m.RateMbps(w, sgi) * (1 - PER(m, snrDB, lengthBytes))
}

// OptimalMCS returns the MCS (among those supporting maxStreams) that
// maximizes expected goodput at the given SNR — the oracle used by the
// paper's trace-based optimal-rate analysis (Fig. 8).
func OptimalMCS(w ChannelWidth, sgi bool, snrDB float64, lengthBytes, maxStreams int) MCS {
	best := Table[0]
	bestTput := -1.0
	for _, m := range Usable(maxStreams) {
		if tput := Throughput(m, w, sgi, snrDB, lengthBytes); tput > bestTput {
			best, bestTput = m, tput
		}
	}
	return best
}

// StaleSINRdB returns the post-equalization (or post-precoding) SINR when
// the receiver equalizes with — or the transmitter precodes from — a stale
// channel estimate whose complex correlation with the true channel is rho.
// The mismatched channel component acts as self-interference:
//
//	SINR = rho^2 * SNR / ((1 - rho^2) * SNR + 1)
//
// With rho = 1 the SNR is returned unchanged; as rho drops the SINR
// saturates at rho^2/(1-rho^2) regardless of SNR. This single mechanism
// produces the paper's aggregation (Fig. 10), SU-beamforming (Fig. 11),
// and MU-MIMO (Fig. 12) staleness curves.
func StaleSINRdB(snrDB, rho float64) float64 {
	return StaleSINRdBLin(snrDB, math.Pow(10, snrDB/10), rho)
}

// StaleSINRdBLin is StaleSINRdB given also the linear SNR,
// snr = math.Pow(10, snrDB/10), so a caller that evaluates many rho
// against one SNR converts it once.
func StaleSINRdBLin(snrDB, snr, rho float64) float64 {
	if rho >= 1 {
		return snrDB
	}
	if rho <= 0 {
		return -40
	}
	r2 := rho * rho
	sinr := r2 * snr / ((1-r2)*snr + 1)
	if sinr < 1e-4 {
		sinr = 1e-4
	}
	return 10 * math.Log10(sinr)
}

// SINRWithInterferenceDB degrades a signal-to-noise ratio by co-channel
// interference received at interfDBm over a noise floor of noiseDBm:
//
//	SINR = S / (N + I)  with  S = SNR * N
//
// The signal power is recovered from the SNR and the noise floor, so the
// result only depends on the two dB gaps. With interference far below the
// noise floor the SNR is returned (numerically) unchanged.
func SINRWithInterferenceDB(snrDB, noiseDBm, interfDBm float64) float64 {
	n := math.Pow(10, noiseDBm/10)
	i := math.Pow(10, interfDBm/10)
	s := math.Pow(10, snrDB/10) * n
	sinr := s / (n + i)
	if sinr < 1e-4 {
		sinr = 1e-4
	}
	return 10 * math.Log10(sinr)
}
