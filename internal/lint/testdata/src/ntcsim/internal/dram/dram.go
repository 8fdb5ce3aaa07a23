// Package dram stands at a component import path the snapshotcheck
// analyzer audits by default.
package dram

// channel's clone copies its banks but shares its activation window.
type channel struct {
	banks     []int64
	actWindow []float64 // want `reference field channel.actWindow is shared by the whole-value copy in clone`
}

func (ch *channel) clone() *channel {
	n := *ch
	n.banks = append([]int64(nil), ch.banks...)
	return &n
}
