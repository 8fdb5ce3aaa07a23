// Package dram stands at a component import path the snapshotcheck
// analyzer audits by default.
package dram

// System checkpoints its clock but not its open row.
type System struct {
	nowNs   float64
	openRow int // want `field System.openRow is not captured by State`
}

// SystemState is the system's checkpoint image.
type SystemState struct {
	NowNs float64
}

func (s *System) State() SystemState { return SystemState{NowNs: s.nowNs} }

func (s *System) Restore(st SystemState) error {
	s.nowNs = st.NowNs
	return nil
}
