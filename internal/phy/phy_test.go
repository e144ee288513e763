package phy

import (
	"math"
	"testing"
	"testing/quick"

	"mobiwlan/internal/csi"
	"mobiwlan/internal/stats"
)

func TestTableShape(t *testing.T) {
	if len(Table) != 24 {
		t.Fatalf("table has %d entries, want 24", len(Table))
	}
	for i, m := range Table {
		if m.Index != i {
			t.Errorf("entry %d has index %d", i, m.Index)
		}
		wantStreams := i/8 + 1
		if m.Streams != wantStreams {
			t.Errorf("MCS%d streams = %d, want %d", i, m.Streams, wantStreams)
		}
	}
}

func TestKnownRates(t *testing.T) {
	cases := []struct {
		idx  int
		w    ChannelWidth
		sgi  bool
		want float64
	}{
		{0, Width20, false, 6.5}, // MCS0: BPSK 1/2
		{7, Width20, false, 65},  // MCS7: 64QAM 5/6
		{7, Width40, false, 135}, // MCS7 40MHz
		{7, Width40, true, 150},  // MCS7 40MHz SGI
		{15, Width40, true, 300}, // MCS15: 2 streams
		{23, Width40, true, 450}, // MCS23: 3 streams
		{4, Width20, false, 39},  // MCS4: 16QAM 3/4
	}
	for _, c := range cases {
		got := ByIndex(c.idx).RateMbps(c.w, c.sgi)
		if math.Abs(got-c.want) > 0.01 {
			t.Errorf("MCS%d %dMHz sgi=%v rate = %v, want %v", c.idx, c.w, c.sgi, got, c.want)
		}
	}
}

func TestByIndexPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ByIndex(24)
}

func TestUsable(t *testing.T) {
	if got := len(Usable(1)); got != 8 {
		t.Fatalf("Usable(1) = %d entries", got)
	}
	if got := len(Usable(2)); got != 16 {
		t.Fatalf("Usable(2) = %d entries", got)
	}
	if got := len(Usable(3)); got != 24 {
		t.Fatalf("Usable(3) = %d entries", got)
	}
}

func TestMaxStreams(t *testing.T) {
	if MaxStreams(3, 2) != 2 || MaxStreams(2, 3) != 2 || MaxStreams(1, 1) != 1 {
		t.Fatal("MaxStreams misbehaves")
	}
}

func TestModulationStrings(t *testing.T) {
	if BPSK.String() != "BPSK" || QAM64.String() != "64-QAM" {
		t.Fatal("Modulation.String misbehaves")
	}
	if QAM16.BitsPerSymbol() != 4 {
		t.Fatal("BitsPerSymbol misbehaves")
	}
}

func TestRequiredSNRMonotoneWithinStream(t *testing.T) {
	for ss := 0; ss < 3; ss++ {
		prev := -100.0
		for i := 0; i < 8; i++ {
			req := RequiredSNRdB(Table[ss*8+i])
			if req <= prev {
				t.Errorf("required SNR not increasing at MCS%d", ss*8+i)
			}
			prev = req
		}
	}
}

func TestRequiredSNRStreamPenalty(t *testing.T) {
	if RequiredSNRdB(ByIndex(8)) <= RequiredSNRdB(ByIndex(0)) {
		t.Error("2-stream MCS should need more SNR than its 1-stream twin")
	}
}

func TestCodedBERMonotoneInSNR(t *testing.T) {
	for _, m := range []MCS{ByIndex(0), ByIndex(7), ByIndex(15)} {
		prev := 1.0
		for snr := -10.0; snr <= 40; snr += 0.5 {
			ber := CodedBER(m, snr)
			if ber > prev+1e-12 {
				t.Fatalf("%v: BER increased with SNR at %v dB", m, snr)
			}
			if ber < 0 || ber > 0.5 {
				t.Fatalf("%v: BER out of range: %v", m, ber)
			}
			prev = ber
		}
	}
}

// TestCodedBERAtRequiredSNRIsSmall pins the waterfall's reliability point
// to its closed form: at RequiredSNRdB the argument is 5.2 slopes above
// the centre, so the coded BER is Q(5.2) = 0.5*erfc(5.2/sqrt2) ~ 9.96e-8
// for every MCS.
func TestCodedBERAtRequiredSNRIsSmall(t *testing.T) {
	want := 0.5 * math.Erfc(5.2/math.Sqrt2)
	for _, m := range Table {
		ber := CodedBER(m, RequiredSNRdB(m))
		if math.Abs(ber-want) > 1e-9*want {
			t.Errorf("%v: BER at required SNR = %v, want Q(5.2) = %v", m, ber, want)
		}
	}
}

func TestPERBounds(t *testing.T) {
	f := func(idxRaw uint8, snrRaw int16, lenRaw uint16) bool {
		m := ByIndex(int(idxRaw) % 24)
		snr := float64(snrRaw) / 100
		length := int(lenRaw%3000) + 1
		p := PER(m, snr, length)
		return p >= 0 && p <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPERZeroLength(t *testing.T) {
	if PER(ByIndex(0), 10, 0) != 0 {
		t.Fatal("zero-length PER should be 0")
	}
}

func TestPERMonotoneInLength(t *testing.T) {
	m := ByIndex(4)
	snr := RequiredSNRdB(m) - 2 // lossy region
	if PER(m, snr, 1500) <= PER(m, snr, 100) {
		t.Fatal("longer packets should fail more often")
	}
}

func TestPERWaterfallShape(t *testing.T) {
	m := ByIndex(7)
	low := PER(m, RequiredSNRdB(m)-8, 1500)
	high := PER(m, RequiredSNRdB(m)+3, 1500)
	if low < 0.99 {
		t.Errorf("PER well below threshold = %v, want ~1", low)
	}
	if high > 0.01 {
		t.Errorf("PER above threshold = %v, want ~0", high)
	}
}

func TestOptimalMCSIncreasesWithSNR(t *testing.T) {
	prevRate := -1.0
	for snr := 0.0; snr <= 40; snr += 5 {
		m := OptimalMCS(Width40, true, snr, 1500, 2)
		rate := m.RateMbps(Width40, true)
		if rate < prevRate {
			t.Fatalf("optimal rate decreased at %v dB", snr)
		}
		prevRate = rate
	}
	// At very high SNR the oracle picks the top usable MCS.
	if m := OptimalMCS(Width40, true, 45, 1500, 2); m.Index != 15 {
		t.Fatalf("optimal at 45 dB = %v, want MCS15", m)
	}
	if m := OptimalMCS(Width40, true, -5, 1500, 2); m.Index != 0 {
		t.Fatalf("optimal at -5 dB = %v, want MCS0", m)
	}
}

func TestStaleSINRIdentityAtRhoOne(t *testing.T) {
	for _, snr := range []float64{0, 10, 25} {
		if got := StaleSINRdB(snr, 1); got != snr {
			t.Errorf("StaleSINR(%v, 1) = %v", snr, got)
		}
	}
}

func TestStaleSINRMonotoneInRho(t *testing.T) {
	prev := -100.0
	for rho := 0.1; rho <= 1.0; rho += 0.05 {
		s := StaleSINRdB(25, rho)
		if s < prev {
			t.Fatalf("StaleSINR not monotone in rho at %v", rho)
		}
		prev = s
	}
}

func TestStaleSINRSaturates(t *testing.T) {
	// At rho=0.9, SINR caps near rho^2/(1-rho^2) = 6.3 dB regardless of SNR.
	cap := 10 * math.Log10(0.81/0.19)
	if got := StaleSINRdB(60, 0.9); math.Abs(got-cap) > 0.5 {
		t.Fatalf("high-SNR stale SINR = %v, want ~%v", got, cap)
	}
}

func TestStaleSINRDegenerateRho(t *testing.T) {
	if StaleSINRdB(20, 0) > -30 {
		t.Fatal("rho=0 should collapse the SINR")
	}
	if StaleSINRdB(20, -0.5) > -30 {
		t.Fatal("negative rho should collapse the SINR")
	}
}

func flatMatrix(subc int, gain float64) *csi.Matrix {
	m := csi.NewMatrix(subc, 3, 2)
	for sc := 0; sc < subc; sc++ {
		for tx := 0; tx < 3; tx++ {
			for rx := 0; rx < 2; rx++ {
				m.Set(sc, tx, rx, complex(gain, 0))
			}
		}
	}
	return m
}

func TestEffectiveSNRFlatChannel(t *testing.T) {
	// A flat channel's effective SNR equals the wideband SNR.
	h := flatMatrix(52, 0.01)
	if got := EffectiveSNRdB(h, 20); math.Abs(got-20) > 0.1 {
		t.Fatalf("flat-channel ESNR = %v, want 20", got)
	}
}

func TestEffectiveSNRSelectiveBelowFlat(t *testing.T) {
	// Frequency selectivity reduces effective SNR below the wideband SNR.
	rng := stats.NewRNG(1)
	h := csi.NewMatrix(52, 3, 2)
	for sc := 0; sc < 52; sc++ {
		g := complex(rng.NormFloat64(), rng.NormFloat64())
		for tx := 0; tx < 3; tx++ {
			for rx := 0; rx < 2; rx++ {
				h.Set(sc, tx, rx, g)
			}
		}
	}
	if got := EffectiveSNRdB(h, 20); got >= 20 {
		t.Fatalf("selective-channel ESNR = %v, want < 20", got)
	}
}

func TestEffectiveSNRZeroChannel(t *testing.T) {
	if got := EffectiveSNRdB(csi.NewMatrix(4, 1, 1), 20); got != -40 {
		t.Fatalf("zero-channel ESNR = %v", got)
	}
}

func TestBeamformedSNRFreshGain(t *testing.T) {
	// MRT with a fresh estimate on a flat channel gives ~10*log10(NTx)
	// array gain (3 tx antennas -> ~4.8 dB).
	h := flatMatrix(52, 0.01)
	bf := BeamformedSNRdB(h, h, 20)
	plain := EffectiveSNRdB(h, 20)
	gain := bf - plain
	want := 10 * math.Log10(3)
	if math.Abs(gain-want) > 0.5 {
		t.Fatalf("fresh MRT gain = %v dB, want ~%v", gain, want)
	}
}

func TestBeamformedSNRStaleLoss(t *testing.T) {
	// Beamforming from a decorrelated estimate loses the array gain.
	rng := stats.NewRNG(2)
	mk := func() *csi.Matrix {
		m := csi.NewMatrix(52, 3, 2)
		for sc := 0; sc < 52; sc++ {
			for tx := 0; tx < 3; tx++ {
				for rx := 0; rx < 2; rx++ {
					m.Set(sc, tx, rx, complex(rng.NormFloat64(), rng.NormFloat64()))
				}
			}
		}
		return m
	}
	h := mk()
	fresh := BeamformedSNRdB(h, h, 20)
	stale := BeamformedSNRdB(h, mk(), 20)
	if stale >= fresh-2 {
		t.Fatalf("stale beamforming (%v dB) should lose clear gain vs fresh (%v dB)", stale, fresh)
	}
}

func TestBeamformedSNRShapeMismatch(t *testing.T) {
	a := flatMatrix(52, 1)
	b := csi.NewMatrix(26, 3, 2)
	if BeamformedSNRdB(a, b, 20) != -40 {
		t.Fatal("shape mismatch should return -40")
	}
	if BeamformedSNRdB(nil, a, 20) != -40 {
		t.Fatal("nil input should return -40")
	}
}

func TestExchangeAirtimeComponents(t *testing.T) {
	tm := DefaultTiming()
	m := ByIndex(15)
	air := ExchangeAirtime(tm, m, Width40, true, 64*1500, 64)
	payload := PayloadDuration(m, Width40, true, 64*1500, 64)
	overhead := air - payload
	wantOverhead := tm.AvgBackoff + tm.DIFS + tm.PLCPPreamble + tm.SIFS + tm.BlockAck
	if math.Abs(overhead-wantOverhead) > 1e-12 {
		t.Fatalf("overhead = %v, want %v", overhead, wantOverhead)
	}
	// 64*1536 bytes at 300 Mb/s is ~2.6 ms.
	if payload < 2e-3 || payload > 3.5e-3 {
		t.Fatalf("payload duration = %v", payload)
	}
}

func TestAggregationEfficiencyImprovesWithSize(t *testing.T) {
	// Goodput share of airtime should rise with aggregation size.
	tm := DefaultTiming()
	m := ByIndex(15)
	eff := func(n int) float64 {
		air := ExchangeAirtime(tm, m, Width40, true, n*1500, n)
		return float64(n*1500*8) / air
	}
	if eff(32) <= eff(1) {
		t.Fatal("aggregation should amortize overhead")
	}
}

func TestMPDUsForAggregationTime(t *testing.T) {
	m := ByIndex(15) // 300 Mb/s SGI 40MHz
	// 4 ms at 300 Mb/s is 150000 bytes -> ~97 MPDUs of 1536 B, capped at 64.
	if got := MPDUsForAggregationTime(m, Width40, true, 4e-3, 1500); got != 64 {
		t.Fatalf("MPDUs(4ms, MCS15) = %d, want 64 (cap)", got)
	}
	// At MCS0 (13.5 Mb/s) 2 ms fits ~2 MPDUs.
	low := ByIndex(0)
	got := MPDUsForAggregationTime(low, Width40, false, 2e-3, 1500)
	if got < 1 || got > 3 {
		t.Fatalf("MPDUs(2ms, MCS0) = %d", got)
	}
	// Never below 1.
	if MPDUsForAggregationTime(low, Width20, false, 1e-6, 1500) != 1 {
		t.Fatal("aggregation floor should be 1 MPDU")
	}
}

func TestFeedbackAirtime(t *testing.T) {
	tm := DefaultTiming()
	bits := csi.NewMatrix(52, 3, 2).FeedbackBits(8)
	air := FeedbackAirtime(tm, bits)
	// ~5000 bits at 24 Mb/s is ~210 us plus overhead: a few hundred us.
	if air < 2e-4 || air > 1e-3 {
		t.Fatalf("feedback airtime = %v s", air)
	}
	// More bits cost more airtime.
	if FeedbackAirtime(tm, 2*bits) <= air {
		t.Fatal("feedback airtime should grow with report size")
	}
}
