package cpu

import "slices"

// bimodal is a classic bimodal branch predictor: a table of 2-bit
// saturating counters indexed by the static branch site.
type bimodal struct {
	counters []uint8
	mask     uint32
}

func newBimodal(entries int) *bimodal {
	if entries&(entries-1) != 0 || entries <= 0 {
		panic("cpu: predictor entries must be a positive power of two")
	}
	b := &bimodal{counters: make([]uint8, entries), mask: uint32(entries - 1)}
	for i := range b.counters {
		b.counters[i] = 1 // weakly not-taken
	}
	return b
}

// clone returns an independent copy of the predictor.
func (b *bimodal) clone() *bimodal {
	n := *b
	n.counters = slices.Clone(b.counters)
	return &n
}

// predict returns the predicted direction for branch site id.
func (b *bimodal) predict(id int32) bool {
	return b.counters[uint32(id)&b.mask] >= 2
}

// update trains the counter with the resolved direction.
func (b *bimodal) update(id int32, taken bool) {
	c := &b.counters[uint32(id)&b.mask]
	if taken {
		if *c < 3 {
			*c++
		}
	} else if *c > 0 {
		*c--
	}
}
