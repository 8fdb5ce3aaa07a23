package workload_test

import (
	"testing"

	"ntcsim/internal/cache"
	"ntcsim/internal/platform"
	"ntcsim/internal/workload"
)

// TestTopAddressFitsCacheTags: the highest line the address layout
// produces on the default chip — the last OS data line of its largest
// global core — fills the paper's L1 and an LLC bank, and evicting it
// reports the same line back, so a packed way's tag holds every address
// the generators draw.
func TestTopAddressFitsCacheTags(t *testing.T) {
	spec := platform.Default()
	top := workload.OSDataTop(spec.TotalCores()-1) - cache.LineBytes
	llc := spec.Cluster.LLC
	banks := uint64(llc.Banks)
	// sim.Cluster hands a bank the line address with the bank-select
	// bits stripped.
	bankTop := top / cache.LineBytes / banks * cache.LineBytes
	for _, tc := range []struct {
		cfg  cache.Config
		addr uint64
	}{
		{cache.L1Config("l1d"), top},
		{cache.Config{Name: "llc-bank", SizeBytes: llc.CapacityBytes / llc.Banks, Assoc: llc.Associativity}, bankTop},
	} {
		c := cache.MustNew(tc.cfg)
		c.Access(tc.addr, true)
		// Lines one set-span apart share a set; assoc of them below the
		// top push it out as the LRU way.
		span := uint64(tc.cfg.SizeBytes / tc.cfg.Assoc)
		var v cache.Victim
		for k := 1; k <= tc.cfg.Assoc; k++ {
			v = c.Access(tc.addr-uint64(k)*span, false).Victim
		}
		if want := (cache.Victim{Dirty: true, Addr: tc.addr}); v != want {
			t.Errorf("%s: evicting %#x reported %+v, want %+v", tc.cfg.Name, tc.addr, v, want)
		}
	}
}
