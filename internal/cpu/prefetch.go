package cpu

import "ntcsim/internal/cache"

// streamPrefetcher is a sequential stream detector in the spirit of
// hardware stream buffers: it remembers recently accessed data lines and,
// when a load touches line L with line L-1 in the recent window (an
// ascending stream), prefetches line L+1. It is an extension knob (off in
// the paper-calibrated configuration) exercised by the prefetch ablation.
type streamPrefetcher struct {
	recent [64]uint64
	idx    int
}

// observe records a load to the line containing addr and returns the next
// line's address when an ascending stream is detected.
func (p *streamPrefetcher) observe(addr uint64) (uint64, bool) {
	line := addr >> cache.LineBits
	hit := false
	for _, r := range p.recent {
		if r == line {
			// Same line re-touched: no new information.
			return 0, false
		}
		if r == line-1 {
			hit = true
		}
	}
	p.recent[p.idx] = line
	p.idx = (p.idx + 1) % len(p.recent)
	if hit {
		return (line + 1) << cache.LineBits, true
	}
	return 0, false
}
