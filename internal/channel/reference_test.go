package channel

import (
	"math"
	"math/cmplx"

	"mobiwlan/internal/csi"
)

// referenceInto is the scalar reference the cached kernel must match
// bit-for-bit: it gathers the paths at time t itself and recomputes every
// path's phasor chain, one antenna pair at a time, with no cache, no
// batching and no fast paths. A nil h is replaced by a fresh matrix.
//
// It touches no Model state beyond reading the configuration and
// geometry, so a model driven only through referenceInto (and sample)
// consumes its noise RNG exactly as one driven through MeasureInto.
func (m *Model) referenceInto(t float64, h *csi.Matrix) *csi.Matrix {
	if h == nil {
		h = csi.NewMatrix(m.cfg.Subcarriers, m.cfg.NTx, m.cfg.NRx)
	}
	client := m.scen.Client.At(t)
	paths := []path{{gain: m.losGain}}
	for _, sc := range m.scen.Scatterers {
		paths = append(paths, path{gain: sc.Reflectivity, via: sc.Traj.At(t), bounce: true})
	}

	lambdaScale := m.cfg.Wavelength() / (4 * math.Pi)
	data := h.Data()
	stride := m.cfg.NTx * m.cfg.NRx
	contribs := make([]complex128, len(paths))
	rots := make([]complex128, len(paths))
	for txi, txOff := range m.apAnts {
		txPos := m.ap.Add(txOff)
		for rxi, rxOff := range m.clientAnts {
			rxPos := client.Add(rxOff)
			// Phase at the first subcarrier, then rotate by a constant
			// per-subcarrier increment (avoids a sincos per subcarrier).
			for pi, p := range paths {
				var length float64
				if p.bounce {
					length = txPos.Dist(p.via) + p.via.Dist(rxPos)
				} else {
					length = txPos.Dist(rxPos)
				}
				if length < 0.1 {
					length = 0.1
				}
				amp := p.gain * lambdaScale / length
				// Indoor excess path loss beyond the breakpoint.
				if bp := m.cfg.PathLossBreakM; bp > 0 && length > bp && m.cfg.PathLossExponent > 2 {
					amp *= math.Pow(bp/length, (m.cfg.PathLossExponent-2)/2)
				}
				contribs[pi] = cmplx.Rect(amp, -2*math.Pi*m.f0*length/SpeedOfLight)
				rots[pi] = cmplx.Rect(1, -2*math.Pi*m.df*length/SpeedOfLight)
			}
			// Each subcarrier's entry is the path-order sum of every
			// chain's current value; each chain then advances by one
			// rotation.
			idx := txi*m.cfg.NRx + rxi
			for sc := 0; sc < m.cfg.Subcarriers; sc++ {
				sum := complex(0, 0)
				for pi := range contribs {
					sum += contribs[pi]
					contribs[pi] *= rots[pi]
				}
				data[idx] = sum
				idx += stride
			}
		}
	}

	// Apply position-dependent shadowing as a real wideband gain factor.
	shadowDB := m.shadow.at(client)
	h.Scale(math.Pow(10, shadowDB/20))
	return h
}
