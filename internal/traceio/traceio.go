// Package traceio records PHY-layer traces (CSI, RSSI, AP-client
// distance) as JSON Lines, so a channel trace can be captured once and
// analysed outside the simulator.
package traceio

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"mobiwlan/internal/channel"
	"mobiwlan/internal/csi"
)

// Record is one trace sample.
type Record struct {
	// Time is the sample time in seconds.
	Time float64 `json:"t"`
	// RSSIdBm is the reported signal strength.
	RSSIdBm float64 `json:"rssi"`
	// SNRdB is the wideband SNR.
	SNRdB float64 `json:"snr"`
	// Distance is the true AP-client distance.
	Distance float64 `json:"dist"`
	// Subcarriers, NTx, NRx are the CSI dimensions.
	Subcarriers int `json:"nsc"`
	NTx         int `json:"ntx"`
	NRx         int `json:"nrx"`
	// CSI holds the channel gains as interleaved re,im pairs in the
	// csi.Matrix storage order.
	CSI []float64 `json:"csi"`
}

// FromSample converts a live channel sample into a trace record.
func FromSample(s channel.Sample) Record {
	m := s.CSI
	rec := Record{
		Time:        s.Time,
		RSSIdBm:     s.RSSIdBm,
		SNRdB:       s.SNRdB,
		Distance:    s.Distance,
		Subcarriers: m.Subcarriers,
		NTx:         m.NTx,
		NRx:         m.NRx,
		CSI:         make([]float64, 0, 2*m.Subcarriers*m.NTx*m.NRx),
	}
	for sc := 0; sc < m.Subcarriers; sc++ {
		for tx := 0; tx < m.NTx; tx++ {
			for rx := 0; rx < m.NRx; rx++ {
				v := m.At(sc, tx, rx)
				rec.CSI = append(rec.CSI, real(v), imag(v))
			}
		}
	}
	return rec
}

// maxDim bounds each CSI dimension of a decoded record. Real CSI is
// at most a few hundred subcarriers by a handful of antennas; the
// bound keeps the dimension product overflow-free so a hostile trace
// (negative or huge dims whose product wraps around to match a short
// CSI slice) is rejected instead of panicking in csi.NewMatrix.
const maxDim = 1 << 16

// Matrix reconstructs the CSI matrix from the record. It validates
// the dimensions: traces come from files, not just from FromSample.
func (r Record) Matrix() (*csi.Matrix, error) {
	for _, d := range []int{r.Subcarriers, r.NTx, r.NRx} {
		if d <= 0 || d > maxDim {
			return nil, fmt.Errorf("traceio: record at t=%v has invalid CSI dimensions %dx%dx%d",
				r.Time, r.Subcarriers, r.NTx, r.NRx)
		}
	}
	want := 2 * r.Subcarriers * r.NTx * r.NRx
	if len(r.CSI) != want {
		return nil, fmt.Errorf("traceio: record at t=%v has %d CSI values, want %d",
			r.Time, len(r.CSI), want)
	}
	m := csi.NewMatrix(r.Subcarriers, r.NTx, r.NRx)
	i := 0
	for sc := 0; sc < r.Subcarriers; sc++ {
		for tx := 0; tx < r.NTx; tx++ {
			for rx := 0; rx < r.NRx; rx++ {
				m.Set(sc, tx, rx, complex(r.CSI[i], r.CSI[i+1]))
				i += 2
			}
		}
	}
	return m, nil
}

// Write serializes records as JSON Lines.
func Write(w io.Writer, recs []Record) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range recs {
		if err := enc.Encode(&recs[i]); err != nil {
			return fmt.Errorf("traceio: encoding record %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// Read parses JSON Lines records.
func Read(r io.Reader) ([]Record, error) {
	var out []Record
	dec := json.NewDecoder(bufio.NewReader(r))
	for {
		var rec Record
		if err := dec.Decode(&rec); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("traceio: decoding record %d: %w", len(out), err)
		}
		out = append(out, rec)
	}
	return out, nil
}

// Capture samples a channel model every interval seconds for the given
// duration and returns the trace.
func Capture(m *channel.Model, interval, duration float64) []Record {
	var out []Record
	for t := 0.0; t < duration; t += interval {
		out = append(out, FromSample(m.Measure(t)))
	}
	return out
}
