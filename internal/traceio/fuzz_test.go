package traceio

import (
	"bytes"
	"testing"
)

// FuzzParse feeds arbitrary byte streams to the JSONL trace parser:
// malformed input must come back as an error, never a panic, and every
// accepted record must survive CSI reconstruction.
func FuzzParse(f *testing.F) {
	// A valid two-record trace (1 subcarrier, 1x1 antennas).
	f.Add([]byte(`{"t":0,"rssi":-50,"snr":20,"dist":3,"nsc":1,"ntx":1,"nrx":1,"csi":[0.5,-0.25]}
{"t":0.1,"rssi":-51,"snr":19,"dist":3.1,"nsc":1,"ntx":1,"nrx":1,"csi":[0.4,-0.2]}
`))
	// Truncated JSON.
	f.Add([]byte(`{"t":0,"rssi":-50,"nsc":1,"nt`))
	// Garbage.
	f.Add([]byte("not json at all"))
	// Negative dimensions whose product is positive and matches the
	// CSI length — the overflow/sign trick the decoder must reject.
	f.Add([]byte(`{"t":0,"nsc":-1,"ntx":-1,"nrx":1,"csi":[0,0]}` + "\n"))
	// Huge dimensions with a wrapped product.
	f.Add([]byte(`{"t":0,"nsc":2147483647,"ntx":2147483647,"nrx":4,"csi":[]}` + "\n"))
	// Dimensions that disagree with the CSI length.
	f.Add([]byte(`{"t":0,"nsc":2,"ntx":1,"nrx":1,"csi":[1]}` + "\n"))
	// Empty input.
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Accepted records must be safe to reconstruct.
		for _, rec := range recs {
			m, err := rec.Matrix()
			if err != nil {
				continue // invalid dims are an error, not a panic
			}
			if m.Subcarriers != rec.Subcarriers || m.NTx != rec.NTx || m.NRx != rec.NRx {
				t.Fatalf("reconstructed matrix %dx%dx%d, record says %dx%dx%d",
					m.Subcarriers, m.NTx, m.NRx, rec.Subcarriers, rec.NTx, rec.NRx)
			}
		}
	})
}

// TestMatrixRejectsHostileDims pins the validation FuzzParse relies
// on: dimension combinations that would previously reach
// csi.NewMatrix (and panic) must come back as errors.
func TestMatrixRejectsHostileDims(t *testing.T) {
	cases := []Record{
		{Subcarriers: -1, NTx: -1, NRx: 1, CSI: make([]float64, 2)}, // negative dims, positive product
		{Subcarriers: 0, NTx: 1, NRx: 1, CSI: nil},                  // zero dim
		{Subcarriers: 1 << 20, NTx: 1, NRx: 1},                      // over maxDim
		{Subcarriers: 1 << 62, NTx: 1 << 2, NRx: 1, CSI: nil},       // overflowing product
	}
	for i, rec := range cases {
		if _, err := rec.Matrix(); err == nil {
			t.Errorf("case %d (%dx%dx%d): want error, got nil",
				i, rec.Subcarriers, rec.NTx, rec.NRx)
		}
	}
}
