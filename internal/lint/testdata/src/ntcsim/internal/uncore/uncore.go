// Package uncore stands at a component import path the snapshotcheck
// analyzer audits by default.
package uncore

// Crossbar's Clone shares its port clocks.
type Crossbar struct {
	transfers uint64
	nextFree  []float64 // want `reference field Crossbar.nextFree is shared by the whole-value copy in Clone`
}

func (x *Crossbar) Clone() *Crossbar {
	n := *x
	return &n
}
