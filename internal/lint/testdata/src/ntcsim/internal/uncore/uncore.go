// Package uncore stands at a component import path the snapshotcheck
// analyzer audits by default.
package uncore

// Crossbar checkpoints its transfer count but not its wait time.
type Crossbar struct {
	transfers uint64
	waitNs    float64 // want `field Crossbar.waitNs is not captured by State`
}

// CrossbarState is the crossbar's checkpoint image.
type CrossbarState struct {
	Transfers uint64
}

func (x *Crossbar) State() CrossbarState { return CrossbarState{Transfers: x.transfers} }

func (x *Crossbar) Restore(st CrossbarState) error {
	x.transfers = st.Transfers
	return nil
}
