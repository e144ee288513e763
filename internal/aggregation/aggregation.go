// Package aggregation implements A-MPDU aggregation-limit policies
// (paper §5): the stock fixed aggregation-time limit and the paper's
// mobility-adaptive limit. The actual subframe count for a frame follows
// from the limit and the current bit-rate ("Aggregation size = Maximum
// allowed aggregation time / Bit-rate").
package aggregation

import (
	"mobiwlan/internal/core"
	"mobiwlan/internal/phy"
)

// Policy chooses the maximum aggregation time for a frame given the
// client's current mobility state.
type Policy interface {
	// Name identifies the policy in experiment output.
	Name() string
	// AggregationTime returns the time limit in seconds.
	AggregationTime(s core.State) float64
}

// Fixed is a statically configured limit (the stock Atheros driver uses
// 4 ms; the 802.11n maximum is ~10 ms).
type Fixed struct {
	Limit float64
}

// Name implements Policy.
func (f Fixed) Name() string { return "fixed" }

// AggregationTime implements Policy.
func (f Fixed) AggregationTime(core.State) float64 { return f.Limit }

// AdaptiveTable is the paper's Table 2 aggregation row: 8 ms when the
// channel is stable (static, environmental), 2 ms under device mobility.
var AdaptiveTable = map[core.State]float64{
	core.StateUnknown:       4e-3,
	core.StateStatic:        8e-3,
	core.StateEnvironmental: 8e-3,
	core.StateMicro:         2e-3,
	core.StateMacroAway:     2e-3,
	core.StateMacroToward:   2e-3,
	core.StateMacroOrbit:    2e-3,
}

// Adaptive selects the limit from the client's mobility state through
// AdaptiveTable.
type Adaptive struct{}

// Name implements Policy.
func (Adaptive) Name() string { return "mobility-adaptive" }

// AggregationTime implements Policy.
func (Adaptive) AggregationTime(s core.State) float64 {
	if v, ok := AdaptiveTable[s]; ok {
		return v
	}
	return 4e-3
}

// MPDUs converts a policy decision into a subframe count for the frame.
func MPDUs(p Policy, s core.State, m phy.MCS, w phy.ChannelWidth, sgi bool, mpduBytes int) int {
	return phy.MPDUsForAggregationTime(m, w, sgi, p.AggregationTime(s), mpduBytes)
}
