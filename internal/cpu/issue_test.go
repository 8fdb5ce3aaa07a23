package cpu

import "testing"

// refRing is the issue-slot ring with a cycle tag per entry: an entry
// whose tag names another cycle is reset when issue reaches it. It keeps
// no invariant about which cycles issue may reach, so it is the
// reference for Core's untagged ring, which relies on one.
type refRing struct {
	cfg           Config
	dispatchCycle int64
	slotCycle     [issueRingSize]int64
	slotUsed      [issueRingSize][4]uint8
}

func (r *refRing) issueSlot(ready int64, class int) int64 {
	if ready > r.dispatchCycle+issueRingSize/2 {
		return ready
	}
	classCap := r.cfg.Width
	if p := r.cfg.Ports; p != nil {
		classCap = [3]int{p.Int, p.Mem, p.FP}[class]
	}
	for cy := ready; ; cy++ {
		idx := cy & (issueRingSize - 1)
		if r.slotCycle[idx] != cy {
			r.slotCycle[idx] = cy
			r.slotUsed[idx] = [4]uint8{}
		}
		if int(r.slotUsed[idx][3]) < r.cfg.Width && int(r.slotUsed[idx][class]) < classCap {
			r.slotUsed[idx][3]++
			r.slotUsed[idx][class]++
			return cy
		}
	}
}

// issueRequest decodes one 4-byte issue request: how far dispatch
// advances (mostly 0 or 1 cycles, sometimes up to 233, rarely half the
// ring or all of it), the ready cycle's offset past dispatch (within 16
// cycles, so requests contend, except one in 256 that lands anywhere up
// to 200 cycles past the far-future cut-off) and the port class.
func issueRequest(b []byte) (advance, offset int64, class int) {
	switch a := int64(b[0]); {
	case a < 144:
	case a < 240:
		advance = 1
	case a < 252:
		advance = (a-240)*21 + 2
	case a < 255:
		advance = issueRingSize/2 + (a-252)*100
	default:
		advance = issueRingSize + 7
	}
	offset = int64(b[1] % 16)
	if b[2] == 0xff {
		offset = (int64(b[1])<<5 | int64(b[3]>>3)) % (issueRingSize/2 + 201)
	}
	return advance, offset, int(b[3] % 3)
}

// FuzzIssueSlotMatchesRing drives Core's issue-slot ring and the tagged
// reference with one string of issue requests, repeated until it has
// made fuzzRequests requests so that issue laps the ring, under the
// unified width and under A57Ports, and requires every issue cycle to
// agree. Like the core's reorder buffer, the harness dispatches request
// n only after request n-WindowSize has issued.
func FuzzIssueSlotMatchesRing(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 200, 3, 0, 1, 0, 5, 0, 2})
	f.Add([]byte{0, 255, 0xff, 0xf9, 250, 0, 0, 1, 255, 0, 0, 2, 0, 0, 0, 1, 245, 2, 0, 0})
	// Dispatch advancing 0 or 1 cycles a request, so issue laps the ring
	// densely; also by up to 233 cycles; by any amount.
	for _, advances := range []int{240, 252, 256} {
		f.Add(lcgRequests(4000, advances))
	}
	f.Fuzz(func(t *testing.T, reqs []byte) {
		if len(reqs) < 4 {
			return
		}
		for _, ports := range []*PortConfig{nil, A57Ports()} {
			cfg := DefaultConfig()
			cfg.Ports = ports
			c := &Core{cfg: cfg}
			ref := &refRing{cfg: cfg}
			issued := make([]int64, 0, fuzzRequests)
			dispatch := int64(0)
			for n := 0; n < fuzzRequests; n++ {
				advance, offset, class := issueRequest(reqs[4*n%(len(reqs)&^3):])
				dispatch += advance
				if w := cfg.WindowSize; n >= w && issued[n-w] >= dispatch {
					dispatch = issued[n-w] + 1
				}
				c.advanceDispatch(dispatch)
				ref.dispatchCycle = dispatch
				// No issue reaches the dispatch cycle again, so its entry
				// is free for the cycle a ring later.
				if e := c.slotUsed[dispatch&(issueRingSize-1)]; e != [4]uint8{} {
					t.Fatalf("ports %+v, request %d: entry of dispatch cycle %d holds %v", ports, n, dispatch, e)
				}
				ready := dispatch + 1 + offset
				got, want := c.issueSlot(ready, class), ref.issueSlot(ready, class)
				if got != want {
					t.Fatalf("ports %+v, request %d (dispatch %d, ready %d, class %d): issue %d, reference %d",
						ports, n, dispatch, ready, class, got, want)
				}
				issued = append(issued, got)
			}
		}
	})
}

// fuzzRequests is how many issue requests one fuzz input makes: enough
// for dispatch advancing 0 or 1 cycles a request to lap the ring.
const fuzzRequests = 4 * issueRingSize

// lcgRequests returns n pseudo-random issue requests whose advance byte
// is below advances.
func lcgRequests(n, advances int) []byte {
	b := make([]byte, 4*n)
	x := uint64(1)
	for i := range b {
		x = x*6364136223846793005 + 1442695040888963407
		b[i] = byte(x >> 56)
		if i%4 == 0 {
			b[i] = byte(int(b[i]) % advances)
		}
	}
	return b
}
