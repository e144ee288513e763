package ratecontrol

import (
	"mobiwlan/internal/mac"
	"mobiwlan/internal/phy"
)

// RunResult summarizes a saturated-download run.
type RunResult struct {
	// Mbps is the achieved MAC goodput.
	Mbps float64
	// Frames is the number of transmit opportunities used.
	Frames int
	// DeliveredMPDUs counts acknowledged subframes.
	DeliveredMPDUs int
	// AvgMCSIndex is the airtime-weighted mean MCS index used.
	AvgMCSIndex float64
}

// Run drives the adapter over the link with saturated download traffic for
// duration seconds, aggregating up to the stock 4 ms time limit (the
// Atheros configuration, paper §5).
func Run(link *mac.Link, ad Adapter, duration float64) RunResult {
	var res RunResult
	var bits float64
	var mcsWeighted float64
	t := 0.0
	for t < duration {
		m := ad.SelectRate(t)
		n := phy.MPDUsForAggregationTime(m, link.Width, link.SGI, 4e-3, link.MPDUBytes)
		fr := link.Transmit(t, m, n)
		ad.OnResult(t+fr.Airtime, fr)
		bits += fr.Goodput(link.MPDUBytes)
		mcsWeighted += float64(m.Index) * fr.Airtime
		res.Frames++
		res.DeliveredMPDUs += fr.Delivered
		t += fr.Airtime
	}
	if t > 0 {
		res.Mbps = bits / t / 1e6
		res.AvgMCSIndex = mcsWeighted / t
	}
	return res
}
