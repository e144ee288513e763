package beamforming

import (
	"math"

	"mobiwlan/internal/channel"
	"mobiwlan/internal/core"
	"mobiwlan/internal/csi"
	"mobiwlan/internal/obs"
	"mobiwlan/internal/phy"
)

// MUUser is one client served by the MU-MIMO group: its channel (NTx x 1 —
// the paper's emulation uses single-antenna laptop receivers), its
// feedback scheduler, and its mobility-state source.
type MUUser struct {
	Chan    *channel.Model
	Sched   FeedbackScheduler
	StateAt func(t float64) core.State
}

// MUConfig parameterizes the MU-MIMO emulator.
type MUConfig struct {
	// FeedbackBits quantizes each fed-back CSI component.
	FeedbackBits int
	// Grouping is the subcarrier grouping factor of the feedback report.
	Grouping int
	// FrameTime is the spacing of (simultaneous) data frames.
	FrameTime float64
	// MPDUBytes sizes the loss model packets.
	MPDUBytes int
	// RateMarginDB backs rate selection off the measured SINR.
	RateMarginDB float64
	// Obs, when non-nil, collects sounding telemetry; Trial keys the
	// per-trial tracer (distinct concurrent trials must use distinct
	// keys).
	Obs   *obs.Scope
	Trial int
}

// DefaultMUConfig returns the paper's §6.2 emulation setup.
func DefaultMUConfig() MUConfig {
	return MUConfig{FeedbackBits: 8, Grouping: 4, FrameTime: 2e-3, MPDUBytes: 1500, RateMarginDB: 1}
}

// MUResult summarizes an emulation run.
type MUResult struct {
	// PerUserMbps is the goodput of each client.
	PerUserMbps []float64
	// TotalMbps is the sum over clients.
	TotalMbps float64
	// FeedbackFraction is the share of airtime spent sounding.
	FeedbackFraction float64
}

// normalizedRowInto extracts one subcarrier's user row from a CSI matrix
// into the caller-owned dst (ColumnInto reuse contract), scaled by a
// precomputed per-user normalization so each user's average channel power
// is 1 (per-user SNR is then applied separately).
func normalizedRowInto(dst []complex128, m *csi.Matrix, sc int, scale float64) []complex128 {
	row := m.ColumnInto(dst, sc, 0)
	if scale > 0 {
		for i := range row {
			row[i] /= complex(scale, 0)
		}
	}
	return row
}

// RunMU emulates a 3-antenna AP serving len(users) single-antenna clients
// simultaneously with zero-forcing MU-MIMO over [0, duration): CSI traces
// are sampled at each user's feedback period, the precoder is rebuilt from
// the latest (quantized) estimates, and every user's per-frame SINR —
// including the inter-user interference leaked by stale precoding —
// selects its rate. This mirrors the paper's trace-based MU-MIMO emulator
// (§6.2).
func RunMU(users []MUUser, cfg MUConfig, duration float64) MUResult {
	timing := phy.DefaultTiming()
	ladder := phy.Usable(1)
	n := len(users)
	res := MUResult{PerUserMbps: make([]float64, n)}
	if n == 0 {
		return res
	}

	// Telemetry (all sinks nil-safe when cfg.Obs is nil).
	soundings := cfg.Obs.Registry().Counter("beamforming.mu.soundings")
	tr := cfg.Obs.Tracer(cfg.Trial)

	ests := make([]*csi.Matrix, n)
	// Reused buffers: one raw-measurement scratch shared by all users'
	// soundings (each user keeps its own quantized estimate in ests), and
	// one true-channel scratch for the per-frame SINR evaluation.
	var mBuf, truthBuf *csi.Matrix
	lastFB := make([]float64, n)
	for i := range lastFB {
		lastFB[i] = -1e9
	}
	bits := make([]float64, n)
	var fbTime float64
	var wc muWeights
	var weights [][][]complex128 // [subcarrier][user][tx]; nil entry = singular
	var hRow []complex128        // per-subcarrier row scratch for the SINR loop

	subc := users[0].Chan.Config().Subcarriers
	t := 0.0
	for t < duration {
		// Sounding: each user whose period elapsed feeds back in turn.
		sounded := false
		for u, usr := range users {
			state := core.StateUnknown
			if usr.StateAt != nil {
				state = usr.StateAt(t)
			}
			if t-lastFB[u] >= usr.Sched.Period(state) {
				m := usr.Chan.MeasureInto(t, mBuf)
				mBuf = m.CSI
				ests[u] = m.CSI.QuantizeInto(ests[u], cfg.FeedbackBits)
				fb := phy.FeedbackAirtime(timing, reportBits(ests[u], cfg.FeedbackBits, cfg.Grouping))
				fbTime += fb
				t += fb
				lastFB[u] = t
				sounded = true
				soundings.Inc()
				tr.Emit(t, "beamforming", "mu-sound", float64(u), fb, core.StateLabel(state))
			}
		}
		if sounded || weights == nil {
			weights = wc.rebuild(ests, subc)
		}
		if weights == nil {
			t += cfg.FrameTime
			continue
		}

		// One simultaneous MU frame.
		for u, usr := range users {
			truthBuf = usr.Chan.ResponseInto(t, truthBuf)
			truth := truthBuf
			scale := math.Sqrt(truth.AvgPower())
			snrLin := math.Pow(10, usr.Chan.SNRdB(t)/10) / float64(n) // equal power split
			var capSum float64
			for sc := 0; sc < subc; sc++ {
				hRow = normalizedRowInto(hRow, truth, sc, scale)
				h := hRow
				if weights[sc] == nil {
					continue
				}
				// The received amplitude of a precoded stream is h^T w.
				sig := sqAbs(dot(h, weights[sc][u]))
				var intf float64
				for j := 0; j < n; j++ {
					if j == u {
						continue
					}
					intf += sqAbs(dot(h, weights[sc][j]))
				}
				sinr := snrLin * sig / (snrLin*intf + 1)
				capSum += math.Log2(1 + sinr)
			}
			eff := math.Pow(2, capSum/float64(subc)) - 1
			sinrDB := 10 * math.Log10(math.Max(eff, 1e-4))
			best := ladder[0]
			for _, m := range ladder {
				if sinrDB-cfg.RateMarginDB >= phy.RequiredSNRdB(m) {
					best = m
				}
			}
			per := phy.PER(best, sinrDB, cfg.MPDUBytes)
			bits[u] += best.RateMbps(phy.Width40, true) * 1e6 * cfg.FrameTime * (1 - per)
		}
		t += cfg.FrameTime
	}
	for u := range users {
		res.PerUserMbps[u] = bits[u] / t / 1e6
		res.TotalMbps += res.PerUserMbps[u]
	}
	res.FeedbackFraction = fbTime / t
	return res
}

// muWeights owns the long-lived buffers behind the per-subcarrier ZF
// precoders: the solver scratch, one weight buffer per subcarrier (kept
// across rebuilds even when a subcarrier goes singular), and the row/scale
// scratch. It belongs to one RunMU invocation's goroutine.
type muWeights struct {
	solver ZFSolver
	buf    [][][]complex128 // persistent storage, one entry per subcarrier
	out    [][][]complex128 // view returned to RunMU: buf[sc] or nil on singular
	rows   [][]complex128
	scales []float64
}

// rebuild recomputes per-subcarrier ZF precoders from the current
// estimates; nil users (never sounded) disable precoding entirely. The
// returned slice is owned by the muWeights and valid until the next call.
func (w *muWeights) rebuild(ests []*csi.Matrix, subc int) [][][]complex128 {
	for _, e := range ests {
		if e == nil {
			return nil
		}
	}
	n := len(ests)
	if len(w.buf) < subc {
		w.buf = make([][][]complex128, subc)
		w.out = make([][][]complex128, subc)
	}
	if len(w.rows) < n {
		w.rows = make([][]complex128, n)
		w.scales = make([]float64, n)
	}
	for u, e := range ests {
		w.scales[u] = math.Sqrt(e.AvgPower())
	}
	for sc := 0; sc < subc; sc++ {
		for u, e := range ests {
			w.rows[u] = normalizedRowInto(w.rows[u], e, sc, w.scales[u])
		}
		var ok bool
		w.buf[sc], ok = w.solver.WeightsInto(w.rows[:n], w.buf[sc])
		if ok {
			w.out[sc] = w.buf[sc]
		} else {
			w.out[sc] = nil
		}
	}
	return w.out[:subc]
}

func sqAbs(v complex128) float64 {
	return real(v)*real(v) + imag(v)*imag(v)
}
