package ctlproto_test

import (
	"testing"

	"mobiwlan/internal/ctlproto"
	"mobiwlan/internal/loadgen"
	"mobiwlan/internal/transport"
)

// TestRoamFlowTakesFastPaths replays perfbench ctl-roam's message flow
// at a reduced size through the coordinator, with no sockets: every
// frame the APs and the controller write (hellos, report batches,
// measure requests, measure answers and roam directives) must take the
// hand-written encoder, and read back through the canonical scanner to
// the value sent.
func TestRoamFlowTakesFastPaths(t *testing.T) {
	cfg := loadgen.Config{
		Seed:             11,
		APs:              2,
		ClientsPerAP:     60,
		ReportsPerClient: 48,
		Telemetry:        transport.Telemetry{Period: 1, Burst: 4},
		RoamEvery:        12,
		MinInterval:      1,
		BatchSize:        64,
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	aps := []string{loadgen.APID(0), loadgen.APID(1)}
	coord := ctlproto.NewCoordinator()
	coord.MinInterval = cfg.MinInterval
	seen := map[string]int{}
	check := func(msgType string, payload any) {
		t.Helper()
		seen[msgType]++
		if enc, dec := ctlproto.FastPaths(msgType, payload); !enc || !dec {
			t.Fatalf("%s %+v: encoder took it: %v, scanner read it back: %v", msgType, payload, enc, dec)
		}
	}
	for i, ap := range aps {
		check(ctlproto.TypeHello, ctlproto.Hello{APID: ap})
		enc := ctlproto.BatchEncoder{APID: ap, SnapshotEvery: cfg.SnapshotEvery}
		var batch ctlproto.ReportBatch
		flush := func() {
			if enc.Flush(&batch) {
				check(ctlproto.TypeReportBatch, &batch)
			}
		}
		for _, r := range loadgen.GenerateAP(cfg, i) {
			if err := enc.Add(&r.Rep); err != nil {
				t.Fatal(err)
			}
			if enc.Len() >= cfg.BatchSize || r.Trigger {
				flush()
			}
			for _, target := range coord.OnMobilityReportInto(&r.Rep, aps, nil) {
				req := ctlproto.MeasureRequest{Client: r.Rep.Client, Time: r.Rep.Time}
				check(ctlproto.TypeMeasureRequest, req)
				ans := loadgen.MeasureAnswer(target, req)
				check(ctlproto.TypeMeasureReport, ans)
				if d, ok := coord.OnMeasureReport(ans); ok {
					check(ctlproto.TypeRoamDirective, d)
				}
			}
		}
		flush()
	}
	for _, typ := range []string{ctlproto.TypeHello, ctlproto.TypeReportBatch,
		ctlproto.TypeMeasureRequest, ctlproto.TypeMeasureReport, ctlproto.TypeRoamDirective} {
		if seen[typ] == 0 {
			t.Errorf("the flow wrote no %s frame", typ)
		}
	}
}
