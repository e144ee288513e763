// Package channel implements the geometric multipath wireless channel
// simulator that substitutes for the paper's testbed radio environment.
//
// The model is ray-based: the signal between each AP antenna and each
// client antenna propagates along a line-of-sight path plus one
// single-bounce path per scatterer. Each path contributes a complex gain
// with free-space amplitude decay and a phase proportional to its length in
// carrier wavelengths, evaluated per OFDM subcarrier. This reproduces the
// mechanisms the paper's classifier depends on:
//
//   - When nothing moves, the channel frequency response is constant up to
//     estimation noise, so consecutive CSI snapshots are nearly identical.
//   - When a person walks nearby (environmental mobility), only the paths
//     bounced off that person change, so the CSI profile changes partially.
//   - When the device itself moves even a few centimeters (one wavelength
//     at 5.8 GHz is 5.2 cm), every path length changes and the CSI profile
//     decorrelates completely — regardless of whether the motion is micro
//     or macro, which is why CSI alone cannot separate those two.
//
// RSSI, SNR, distance (for ToF) and position-dependent log-normal
// shadowing are derived from the same geometry.
package channel

import (
	"math"

	"mobiwlan/internal/csi"
	"mobiwlan/internal/geom"
	"mobiwlan/internal/mobility"
	"mobiwlan/internal/stats"
)

// SpeedOfLight in meters per second.
const SpeedOfLight = 299792458.0

// Config holds the radio parameters of a link.
type Config struct {
	// CarrierHz is the center frequency. The paper tunes to 5.825 GHz.
	CarrierHz float64
	// BandwidthHz is the channel width (40 MHz in the paper).
	BandwidthHz float64
	// Subcarriers is the number of reported CSI subcarriers (52 on the
	// AR9390, matching the paper).
	Subcarriers int
	// NTx and NRx are the AP and client antenna counts (3x2 in the paper).
	NTx, NRx int
	// TxPowerDBm is the transmit power.
	TxPowerDBm float64
	// NoiseFloorDBm is the receiver noise floor over the full bandwidth.
	NoiseFloorDBm float64
	// CSINoiseSNRdB is the effective SNR of CSI estimation; per-subcarrier
	// estimation noise is scaled so that a static channel's similarity
	// saturates just below 1, as observed on real chipsets.
	CSINoiseSNRdB float64
	// ShadowSigmaDB is the standard deviation of position-dependent
	// log-normal shadowing.
	ShadowSigmaDB float64
	// ShadowCorrLen is the spatial decorrelation length of shadowing in
	// meters.
	ShadowCorrLen float64
	// RSSIQuantDB quantizes reported RSSI (1 dB on commodity hardware).
	RSSIQuantDB float64
	// RSSINoiseDB is the per-report RSSI measurement noise stddev.
	RSSINoiseDB float64
	// PathLossExponent is the indoor distance-power law: beyond
	// PathLossBreakM, path amplitudes decay as d^(-n/2) instead of the
	// free-space d^(-1) (walls, furniture, people absorb energy).
	PathLossExponent float64
	// PathLossBreakM is the breakpoint distance in meters.
	PathLossBreakM float64
	// LoSGain scales the line-of-sight path amplitude: 1 is a clear
	// line of sight; lower values model clutter/blockage (cubicle walls,
	// people) that makes the channel multipath-dominated — Rician with a
	// small K factor. 0 removes the LoS entirely (pure NLOS).
	LoSGain float64
}

// DefaultConfig mirrors the paper's testbed: HP MSM 460 (3 antennas,
// AR9390) at 5.825 GHz / 40 MHz talking to a 2-antenna Galaxy S5.
func DefaultConfig() Config {
	return Config{
		CarrierHz:     5.825e9,
		BandwidthHz:   40e6,
		Subcarriers:   52,
		NTx:           3,
		NRx:           2,
		TxPowerDBm:    18,
		NoiseFloorDBm: -92, // kTB + NF over 40 MHz
		CSINoiseSNRdB: 31,
		ShadowSigmaDB: 3,
		ShadowCorrLen: 8,
		RSSIQuantDB:   1,
		RSSINoiseDB:   0.7,

		PathLossExponent: 3.5,
		PathLossBreakM:   5,
		LoSGain:          1,
	}
}

// Wavelength returns the carrier wavelength in meters.
func (c Config) Wavelength() float64 { return SpeedOfLight / c.CarrierHz }

// Sample is one PHY-layer observation of the link, as an AP would collect
// from a client transmission (data or ACK).
type Sample struct {
	// Time is the observation time in seconds.
	Time float64
	// CSI is the noisy channel estimate.
	CSI *csi.Matrix
	// RSSIdBm is the reported received signal strength.
	RSSIdBm float64
	// SNRdB is the wideband signal-to-noise ratio implied by the RSSI.
	SNRdB float64
	// Distance is the true AP-client distance in meters (consumed by the
	// ToF model, never exposed to protocols directly).
	Distance float64
}

// Model is the channel between one AP and one client for a given scenario.
// It is deterministic: the same scenario, config and seed produce the same
// sample stream.
//
// A Model is NOT safe for concurrent use: Measure advances the noise RNG,
// and the hot-path methods reuse per-model scratch. Parallel trials must
// build one Model each (as internal/parallel's RNG-split contract already
// requires).
type Model struct {
	cfg    Config
	ap     geom.Point
	scen   *mobility.Scenario
	noise  *stats.RNG
	shadow *shadowField

	apAnts     []geom.Vector // antenna offsets from the AP position
	clientAnts []geom.Vector // antenna offsets from the client position
	subFreqs   []float64     // absolute subcarrier frequencies

	// losGain is the effective line-of-sight gain: Config.LoSGain with the
	// zero-value-Config fallback applied once at construction instead of
	// per Response call.
	losGain float64
	// f0 and df are the first subcarrier frequency and the per-subcarrier
	// increment, hoisted from the response loop.
	f0, df float64
	// csiNoiseScale is 10^(-CSINoiseSNRdB/20), hoisted from MeasureInto.
	csiNoiseScale float64
	// pow075OK enables the exact x^0.75 breakpoint fast path: the
	// configured exponent must map to 0.75 and the platform's math.Pow
	// must match pow075 bit-for-bit (see kernel.go).
	pow075OK bool

	// paths is per-call scratch for the response computation (LoS plus one
	// bounce per scatterer), reused across calls so the steady-state hot
	// path does not allocate.
	paths []path
	// contribs are the per-path phasor accumulators for one antenna pair
	// in the Go chain sweep. Keeping all paths' phasor chains in flight at
	// once (advanced together per subcarrier) turns the latency-bound
	// serial rotation into independent chains without changing a single
	// floating-point operation or its order.
	contribs []complex128
	// legsTx/legsRx, amps and powIdx are pass scratch for the batched
	// kernel (kernel.go): per-antenna bounce-leg distances at
	// [anti*nPaths+pi], per-path amplitudes, and the gathered path-index
	// set the breakpoint/phasor passes operate on. Sized alongside the
	// cache's per-path state.
	legsTx, legsRx []float64
	amps           []float64
	powIdx         []int32
	// contribsP/rotsP are path-major scratch for the fused all-pairs
	// sweep: chain row j holds every pair's value for one path at
	// [j*nPairs+pair], so the AVX2 kernel (chainquad_amd64.s) walks all
	// pairs' chains in lockstep. Only populated when fused is set.
	contribsP, rotsP []complex128
	// fused selects the AVX2 all-pairs chain sweep. Fixed at
	// construction, because the prefix memo's layout depends on it
	// (sc-major rows when fused, per-pair runs otherwise) and must stay
	// consistent for the cache's lifetime.
	fused bool
	// rssiScratch backs MeanRSSI/SNRdB, which need a response matrix but
	// expose only scalars derived from it.
	rssiScratch *csi.Matrix

	// cache is the coherence-aware response cache (see DESIGN.md, "Channel
	// coherence cache"). Like the scratch slices above, it belongs to the
	// goroutine that owns the Model and must never be shared.
	cache respCache
}

// respCache memoizes the last noise-free response so that repeated
// ResponseInto calls pay only for the geometry that actually changed.
//
// ResponseInto scans the epoch key (client position, then every path's
// via and gain) for first, the lowest path whose key changed:
//
//   - first == nPaths: nothing changed since the previous call, so the
//     previous post-shadow matrix is copied out verbatim. Static trials
//     collapse to one real evaluation per epoch.
//   - otherwise the struct-of-arrays kernel (kernel.go) runs from first.
//     It seeds each subcarrier's accumulator with the memoized ordered
//     prefix sum of the leading unchanged paths and re-keys every path at
//     and after first on (length, gain). A moved client (or a cold cache)
//     gives first = 0, so every path is re-keyed; when only scatterers
//     moved, environmental trials pay only for the moving chains. The
//     summation still runs over all paths in the original order, so the
//     output is bit-identical to the scalar reference (reference_test.go).
//
// The cache never covers noise: MeasureInto draws its Gaussians after
// ResponseInto returns, so RNG draw order is untouched by hits or misses.
type respCache struct {
	// epochValid gates the key scan (a resized key is all zeros and must
	// not match); client/vias/gains are the epoch key, resp the post-shadow
	// matrix it produced.
	epochValid bool
	client     geom.Point
	vias       []geom.Point
	gains      []float64
	resp       *csi.Matrix

	// nPaths is the path count the per-path state below is sized for; a
	// change (scatterer appearance/removal) resizes and poisons lens.
	nPaths int
	// lens holds the cached path length per (pair, path) at
	// lens[pair*nPaths+pi]; NaN forces a recompute (NaN == x is false for
	// every x, including NaN).
	lens []float64
	// ph0 and rot memoize each chain's initial phasor and per-subcarrier
	// rotation at [pair*nPaths+pi] — the struct-of-arrays replacement for
	// the old per-subcarrier series (two complex128 per chain instead of
	// Subcarriers of them).
	ph0, rot []complex128
	// pref memoizes, at [pair*nSub+sc], the ordered per-subcarrier partial
	// sum of paths [0, prefLen) — always a prefix of the path order, so
	// seeding an accumulator with it preserves the exact addition sequence.
	// prefLen 0 means no memoized prefix.
	pref    []complex128
	prefLen int

	// shadowDB/shadowScale memoize the 10^(dB/20) conversion of the last
	// shadow-field value; shadowOK distinguishes "never computed" from a
	// genuine 0 dB. Same input, same Pow, same bits.
	shadowDB    float64
	shadowScale float64
	shadowOK    bool

	hits, misses, pathEvals, pathReuses uint64
}

// CacheStats reports response-cache effectiveness counters.
type CacheStats struct {
	// Hits counts epoch-level hits (whole response copied from cache).
	Hits uint64
	// Misses counts calls that re-entered the per-path evaluation.
	Misses uint64
	// PathEvals counts per-(pair,path) phasor chains recomputed.
	PathEvals uint64
	// PathReuses counts per-(pair,path) phasor chains served from cache.
	PathReuses uint64
}

// CacheStats returns the model's response-cache counters.
func (m *Model) CacheStats() CacheStats {
	return CacheStats{
		Hits:       m.cache.hits,
		Misses:     m.cache.misses,
		PathEvals:  m.cache.pathEvals,
		PathReuses: m.cache.pathReuses,
	}
}

// path is one propagation path: the line of sight or a single bounce via a
// scatterer position.
type path struct {
	gain   float64 // amplitude
	via    geom.Point
	bounce bool
}

// New builds a channel model between the scenario's AP and client.
func New(cfg Config, scen *mobility.Scenario, rng *stats.RNG) *Model {
	return NewAt(cfg, scen.AP, scen, rng)
}

// NewAt builds a channel model between an arbitrary AP position and the
// scenario's client — used by the roaming simulator, where several APs
// observe the same walking client.
func NewAt(cfg Config, ap geom.Point, scen *mobility.Scenario, rng *stats.RNG) *Model {
	m := &Model{
		cfg:    cfg,
		ap:     ap,
		scen:   scen,
		noise:  rng.Split(0x6e6f6973), // "nois"
		shadow: newShadowField(cfg.ShadowSigmaDB, cfg.ShadowCorrLen, rng.Split(0x73686164)),
	}
	lambda := cfg.Wavelength()
	// Uniform linear arrays spaced half a wavelength along x (AP) and y
	// (client) so antenna pairs see distinct geometry.
	for i := 0; i < cfg.NTx; i++ {
		m.apAnts = append(m.apAnts, geom.Vec(float64(i)*lambda/2, 0))
	}
	for i := 0; i < cfg.NRx; i++ {
		m.clientAnts = append(m.clientAnts, geom.Vec(0, float64(i)*lambda/2))
	}
	m.subFreqs = make([]float64, cfg.Subcarriers)
	for i := range m.subFreqs {
		frac := (float64(i) - float64(cfg.Subcarriers-1)/2) / float64(cfg.Subcarriers)
		m.subFreqs[i] = cfg.CarrierHz + frac*cfg.BandwidthHz
	}
	m.losGain = cfg.LoSGain
	if m.losGain == 0 && cfg.PathLossExponent == 0 {
		// Zero-value Config: keep the zero-config behaviour sane. A
		// deliberate pure-NLOS setup (LoSGain 0 with a configured path-loss
		// exponent) is left alone.
		m.losGain = 1
	}
	m.f0 = m.subFreqs[0]
	if len(m.subFreqs) > 1 {
		m.df = m.subFreqs[1] - m.subFreqs[0]
	}
	m.csiNoiseScale = math.Pow(10, -cfg.CSINoiseSNRdB/20)
	m.pow075OK = (cfg.PathLossExponent-2)/2 == 0.75 && pow075Exact
	// The AVX2 fused sweep walks pair columns two at a time over whole
	// four-subcarrier groups; other shapes keep the per-pair Go sweep.
	m.fused = fusedSweepOK && cfg.NTx*cfg.NRx%2 == 0 && cfg.Subcarriers > 0 && cfg.Subcarriers%4 == 0
	m.paths = make([]path, 0, 1+len(scen.Scatterers))
	m.contribs = make([]complex128, 0, 1+len(scen.Scatterers))
	return m
}

// Config returns the model's radio configuration.
func (m *Model) Config() Config { return m.cfg }

// Distance returns the true AP-client distance at time t.
func (m *Model) Distance(t float64) float64 {
	return m.scen.Client.At(t).Dist(m.ap)
}

// Response computes the true (noise-free) CSI matrix at time t into a
// freshly allocated matrix. Hot paths should prefer ResponseInto with a
// reused buffer.
func (m *Model) Response(t float64) *csi.Matrix {
	return m.ResponseInto(t, nil)
}

// ResponseInto computes the true (noise-free) CSI matrix at time t into h
// and returns h. A nil h is replaced by a freshly allocated matrix; a
// non-nil h must have the model's dimensions and is overwritten in full.
// Steady-state callers that pass the previous return value back in never
// allocate. The per-call path scratch lives on the Model, which is why a
// Model must not be shared between goroutines.
//
//mobilint:hotpath
func (m *Model) ResponseInto(t float64, h *csi.Matrix) *csi.Matrix {
	client := m.scen.Client.At(t)
	if h == nil {
		h = csi.NewMatrix(m.cfg.Subcarriers, m.cfg.NTx, m.cfg.NRx)
	} else if h.Subcarriers != m.cfg.Subcarriers || h.NTx != m.cfg.NTx || h.NRx != m.cfg.NRx {
		// No Zero() on reuse: both a hit and the kernel overwrite the full
		// matrix.
		panic("channel: ResponseInto buffer has wrong dimensions for this model")
	}

	// Gather path endpoints once: LoS plus one bounce per scatterer.
	m.paths = m.paths[:0]
	m.paths = append(m.paths, path{gain: m.losGain})
	for _, sc := range m.scen.Scatterers {
		m.paths = append(m.paths, path{gain: sc.Reflectivity, via: sc.Traj.At(t), bounce: true})
	}

	c := &m.cache
	nPaths := len(m.paths)
	nSub := m.cfg.Subcarriers
	nPairs := m.cfg.NTx * m.cfg.NRx
	if c.resp == nil {
		c.resp = csi.NewMatrix(nSub, m.cfg.NTx, m.cfg.NRx)
	}
	//mobilint:coldstart scatterer count changes resize per-path state once, then every slot is reused
	if nPaths != c.nPaths {
		// Scatterer appearance/removal: resize the per-path state and
		// poison every cached length so each slot recomputes once.
		c.nPaths = nPaths
		c.vias = make([]geom.Point, nPaths)
		c.gains = make([]float64, nPaths)
		c.lens = make([]float64, nPairs*nPaths)
		for i := range c.lens {
			c.lens[i] = math.NaN()
		}
		c.ph0 = make([]complex128, nPairs*nPaths)
		c.rot = make([]complex128, nPairs*nPaths)
		m.legsTx = make([]float64, m.cfg.NTx*nPaths)
		m.legsRx = make([]float64, m.cfg.NRx*nPaths)
		m.amps = make([]float64, nPaths)
		m.powIdx = make([]int32, nPaths)
		if m.fused {
			m.contribsP = make([]complex128, nPairs*nPaths)
			m.rotsP = make([]complex128, nPairs*nPaths)
		}
		if c.pref == nil {
			c.pref = make([]complex128, nPairs*nSub)
		}
		c.epochValid = false
		c.prefLen = 0
	}

	// first is the lowest path whose epoch key changed: 0 when the client
	// moved or there is no epoch yet, nPaths when nothing changed. An
	// unchanged via and gain with an unchanged client imply an unchanged
	// length for every antenna pair (the AP never moves).
	first := 0
	if c.epochValid && client == c.client {
		for first < nPaths && m.paths[first].via == c.vias[first] && m.paths[first].gain == c.gains[first] {
			first++
		}
	}
	if first == nPaths {
		c.hits++
		copy(h.Data(), c.resp.Data())
		return h
	}
	c.misses++

	// Resolve the position-dependent shadowing factor first: it depends
	// only on the client position, and the fused sweep folds it into the
	// finished sums (the exact Matrix.Scale per-entry operation) instead
	// of re-walking the matrix in a separate pass.
	shadowDB := m.shadow.at(client)
	if !c.shadowOK || shadowDB != c.shadowDB {
		c.shadowDB = shadowDB
		c.shadowScale = math.Pow(10, shadowDB/20)
		c.shadowOK = true
	}

	m.evalIncremental(client, h, first)
	if !m.fused {
		h.Scale(c.shadowScale)
	}

	// Commit the epoch key and the post-shadow matrix for the next call.
	c.client = client
	for pi, p := range m.paths {
		c.vias[pi] = p.via
		c.gains[pi] = p.gain
	}
	copy(c.resp.Data(), h.Data())
	c.epochValid = true
	return h
}

// Measure returns a noisy PHY observation at time t with a freshly
// allocated CSI matrix. Hot paths should prefer MeasureInto with a reused
// buffer.
func (m *Model) Measure(t float64) Sample {
	return m.MeasureInto(t, nil)
}

// MeasureInto is Measure writing the CSI estimate into the caller-owned
// buffer h (nil allocates; see ResponseInto for the reuse contract). The
// returned Sample's CSI field is h, so it remains valid only until the
// caller reuses the buffer.
//
//mobilint:hotpath
func (m *Model) MeasureInto(t float64, h *csi.Matrix) Sample {
	return m.sample(t, m.ResponseInto(t, h))
}

// noiseChunk is how many CSI entries one NormFill call covers in sample:
// 128 complex entries, 2 KB of normals on the stack.
const noiseChunk = 128

// sample turns the noise-free response h at time t into a Sample: it adds
// CSI estimation noise to h in place and derives the reported RSSI and
// SNR, drawing from the noise RNG in a fixed order.
func (m *Model) sample(t float64, h *csi.Matrix) Sample {
	// Estimation noise relative to the channel's RMS amplitude. The noise
	// entries are drawn in storage order (sc, tx, rx), which linear
	// iteration over the backing array preserves.
	rms := math.Sqrt(h.AvgPower())
	sigma := rms * m.csiNoiseScale / math.Sqrt2
	data := h.Data()
	// NormFill draws the standard normals the Gaussian(0, sigma) calls
	// would, in the same order (re, then im, per entry); each entry adds
	// 0 + sigma*z, which is what Gaussian returns.
	var z [2 * noiseChunk]float64
	for lo := 0; lo < len(data); lo += noiseChunk {
		blk := data[lo:min(lo+noiseChunk, len(data))]
		zs := z[:2*len(blk)]
		m.noise.NormFill(zs)
		for i := range blk {
			blk[i] += complex(0+sigma*zs[2*i], 0+sigma*zs[2*i+1])
		}
	}
	rssi := m.rssiFrom(h)
	return Sample{
		Time:     t,
		CSI:      h,
		RSSIdBm:  rssi,
		SNRdB:    rssi - m.cfg.NoiseFloorDBm,
		Distance: m.Distance(t),
	}
}

// rssiFrom converts a channel estimate to a reported RSSI value, with
// measurement noise and hardware quantization.
func (m *Model) rssiFrom(h *csi.Matrix) float64 {
	p := h.AvgPower()
	if p <= 0 {
		return -120
	}
	rssi := m.cfg.TxPowerDBm + 10*math.Log10(p) + m.noise.Gaussian(0, m.cfg.RSSINoiseDB)
	if q := m.cfg.RSSIQuantDB; q > 0 {
		rssi = math.Round(rssi/q) * q
	}
	return rssi
}

// MeanRSSI returns the expected (noise-free, unquantized) RSSI at time t —
// the quantity roaming policies estimate by averaging reports.
func (m *Model) MeanRSSI(t float64) float64 {
	m.rssiScratch = m.ResponseInto(t, m.rssiScratch)
	p := m.rssiScratch.AvgPower()
	if p <= 0 {
		return -120
	}
	return m.cfg.TxPowerDBm + 10*math.Log10(p)
}

// SNRdB returns the expected wideband SNR at time t.
func (m *Model) SNRdB(t float64) float64 {
	return m.MeanRSSI(t) - m.cfg.NoiseFloorDBm
}

// shadowField is a smooth pseudo-random spatial field used for log-normal
// shadowing: a sum of planar sinusoids with random orientations and a
// spatial period near the decorrelation length. Being a deterministic
// function of position, a static client sees constant shadowing while a
// walking client sees it vary — as in real buildings.
type shadowField struct {
	sigma float64
	comps []shadowComponent
}

type shadowComponent struct {
	kx, ky, phase, weight float64
}

func newShadowField(sigmaDB, corrLen float64, rng *stats.RNG) *shadowField {
	f := &shadowField{sigma: sigmaDB}
	if sigmaDB <= 0 {
		return f
	}
	const n = 6
	var sumW2 float64
	for i := 0; i < n; i++ {
		ang := rng.Range(0, 2*math.Pi)
		wavelen := corrLen * rng.Range(0.7, 1.8)
		k := 2 * math.Pi / wavelen
		c := shadowComponent{
			kx:     k * math.Cos(ang),
			ky:     k * math.Sin(ang),
			phase:  rng.Range(0, 2*math.Pi),
			weight: rng.Range(0.5, 1),
		}
		sumW2 += c.weight * c.weight / 2 // sine variance = w^2/2
		f.comps = append(f.comps, c)
	}
	norm := sigmaDB / math.Sqrt(sumW2)
	for i := range f.comps {
		f.comps[i].weight *= norm
	}
	return f
}

// at returns the shadowing value in dB at position p.
func (f *shadowField) at(p geom.Point) float64 {
	if f.sigma <= 0 {
		return 0
	}
	var s float64
	for _, c := range f.comps {
		s += c.weight * math.Sin(c.kx*p.X+c.ky*p.Y+c.phase)
	}
	return s
}
