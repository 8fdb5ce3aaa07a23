package dram

import "fmt"

// BankState is the exported state of one bank, for checkpointing.
type BankState struct {
	OpenRow    int64
	LastActNs  float64
	ActReadyNs float64
	CasReadyNs float64
	PreReadyNs float64
}

// ChannelState is the exported state of one channel.
type ChannelState struct {
	Banks        []BankState
	LastActNs    []float64
	ActWindow    [][]float64
	ActIdx       []int
	LastActGroup []int
	BusFreeNs    float64
	LastWasWrite bool
	WriteDataEnd float64
	LastCASNs    float64
	LastCASGroup int
}

// SystemState is the complete dynamic state of a System.
type SystemState struct {
	Channels  []ChannelState
	Stats     Stats
	LastNowNs float64
}

// State captures the system's dynamic state.
func (s *System) State() SystemState {
	st := SystemState{Stats: s.stats, LastNowNs: s.lastNowNs}
	for _, ch := range s.chans {
		cs := ChannelState{
			BusFreeNs:    ch.busFreeNs,
			LastWasWrite: ch.lastWasWrite,
			WriteDataEnd: ch.writeDataEndNs,
			LastCASNs:    ch.lastCASNs,
			LastCASGroup: ch.lastCASGroup,
			ActIdx:       append([]int(nil), ch.actIdx...),
			LastActGroup: append([]int(nil), ch.lastActGroup...),
			LastActNs:    append([]float64(nil), ch.lastActNs...),
		}
		for _, win := range ch.actWindow {
			cs.ActWindow = append(cs.ActWindow, append([]float64(nil), win...))
		}
		for _, b := range ch.banks {
			cs.Banks = append(cs.Banks, BankState{
				OpenRow:    b.openRow,
				LastActNs:  b.lastActNs,
				ActReadyNs: b.actReadyNs,
				CasReadyNs: b.casReadyNs,
				PreReadyNs: b.preReadyNs,
			})
		}
		st.Channels = append(st.Channels, cs)
	}
	return st
}

// Restore loads a state captured from an identically configured system.
func (s *System) Restore(st SystemState) error {
	if len(st.Channels) != len(s.chans) {
		return fmt.Errorf("dram: state has %d channels, want %d", len(st.Channels), len(s.chans))
	}
	for i, cs := range st.Channels {
		ch := s.chans[i]
		if len(cs.Banks) != len(ch.banks) || len(cs.LastActNs) != len(ch.lastActNs) {
			return fmt.Errorf("dram: channel %d shape mismatch", i)
		}
		ch.busFreeNs = cs.BusFreeNs
		ch.lastWasWrite = cs.LastWasWrite
		ch.writeDataEndNs = cs.WriteDataEnd
		ch.lastCASNs = cs.LastCASNs
		ch.lastCASGroup = cs.LastCASGroup
		copy(ch.actIdx, cs.ActIdx)
		copy(ch.lastActGroup, cs.LastActGroup)
		copy(ch.lastActNs, cs.LastActNs)
		for j, row := range cs.ActWindow {
			copy(ch.actWindow[j], row)
		}
		for j, b := range cs.Banks {
			ch.banks[j] = bank{
				openRow:    b.OpenRow,
				lastActNs:  b.LastActNs,
				actReadyNs: b.ActReadyNs,
				casReadyNs: b.CasReadyNs,
				preReadyNs: b.PreReadyNs,
			}
		}
	}
	s.stats = st.Stats
	s.lastNowNs = st.LastNowNs
	return nil
}
