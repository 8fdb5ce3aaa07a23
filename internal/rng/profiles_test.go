package rng_test

import (
	"testing"

	"ntcsim/internal/rng"
	"ntcsim/internal/workload"
)

// TestProfileGeometricMatchesInverseCDF scans every geometric parameter a
// workload profile draws with: the dependency distance p = DepGeomP and,
// for profiles with OS execution, the burst length p = 1/OSBurst.
func TestProfileGeometricMatchesInverseCDF(t *testing.T) {
	draws := 10_000_000
	if testing.Short() {
		draws = 100_000
	}
	seen := map[float64]bool{}
	for _, p := range workload.All() {
		ps := []float64{p.DepGeomP}
		if p.OSFrac > 0 {
			ps = append(ps, 1/p.OSBurst)
		}
		for _, q := range ps {
			if !seen[q] {
				seen[q] = true
				rng.CheckGeometricMatchesInverseCDF(t, q, draws)
			}
		}
	}
}

// TestProfileZipfMatchesBinarySearch scans every Zipf table the workload
// generator builds, for every profile it can run.
func TestProfileZipfMatchesBinarySearch(t *testing.T) {
	profiles := append(workload.All(), workload.Extended()...)
	profiles = append(profiles, workload.Bubble())
	for _, p := range profiles {
		workload.NewGenerator(p, 0, rng.New(1))
	}
	params := rng.CachedZipfParams()
	if len(params) < 4 {
		t.Fatalf("generators built only %d Zipf tables", len(params))
	}
	for _, z := range params {
		rng.CheckZipfMatchesBinarySearch(t, z.N, z.Theta)
	}
}
