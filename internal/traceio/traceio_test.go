package traceio

import (
	"bytes"
	"strings"
	"testing"

	"mobiwlan/internal/channel"
	"mobiwlan/internal/csi"
	"mobiwlan/internal/mobility"
	"mobiwlan/internal/stats"
)

func capture(t *testing.T, n int) []Record {
	t.Helper()
	cfg := mobility.DefaultSceneConfig()
	cfg.Duration = float64(n) * 0.05
	scen := mobility.NewScenario(mobility.Micro, cfg, stats.NewRNG(1))
	m := channel.New(channel.DefaultConfig(), scen, stats.NewRNG(2))
	return Capture(m, 0.05, cfg.Duration)
}

func TestCaptureProducesRecords(t *testing.T) {
	recs := capture(t, 20)
	if len(recs) != 20 {
		t.Fatalf("captured %d records, want 20", len(recs))
	}
	for i, r := range recs {
		if r.Subcarriers != 52 || r.NTx != 3 || r.NRx != 2 {
			t.Fatalf("record %d has bad dims", i)
		}
		if len(r.CSI) != 2*52*3*2 {
			t.Fatalf("record %d has %d CSI values", i, len(r.CSI))
		}
		if r.Distance <= 0 {
			t.Fatalf("record %d missing distance", i)
		}
	}
}

func TestMatrixRoundTrip(t *testing.T) {
	recs := capture(t, 3)
	m, err := recs[1].Matrix()
	if err != nil {
		t.Fatal(err)
	}
	// Round-trip through FromSample again must preserve the matrix.
	rec2 := FromSample(channel.Sample{Time: recs[1].Time, CSI: m})
	m2, err := rec2.Matrix()
	if err != nil {
		t.Fatal(err)
	}
	if rho := csi.TemporalCorrelation(m, m2); rho < 1-1e-12 {
		t.Fatalf("round-trip correlation = %v", rho)
	}
}

func TestMatrixRejectsTruncated(t *testing.T) {
	recs := capture(t, 1)
	recs[0].CSI = recs[0].CSI[:10]
	if _, err := recs[0].Matrix(); err == nil {
		t.Fatal("expected error for truncated CSI")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	recs := capture(t, 10)
	var buf bytes.Buffer
	if err := Write(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("read %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i].Time != recs[i].Time || got[i].RSSIdBm != recs[i].RSSIdBm {
			t.Fatalf("record %d differs", i)
		}
		if len(got[i].CSI) != len(recs[i].CSI) {
			t.Fatalf("record %d CSI length differs", i)
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader("not json\n")); err == nil {
		t.Fatal("expected parse error")
	}
}
