package rng

import "math"

// Hooks for the external tests in profiles_test.go, which import the
// workload package (itself an importer of rng).

var (
	// CheckGeometricMatchesInverseCDF runs the geometric equivalence scan.
	CheckGeometricMatchesInverseCDF = checkGeometric
	// CheckZipfMatchesBinarySearch runs the Zipf equivalence scan.
	CheckZipfMatchesBinarySearch = checkZipf
)

// ZipfParams is one cached Zipf table's parameters.
type ZipfParams struct {
	N     int
	Theta float64
}

// CachedZipfParams lists the (n, theta) of every cached Zipf table.
func CachedZipfParams() []ZipfParams {
	tables.mu.Lock()
	defer tables.mu.Unlock()
	var out []ZipfParams
	for k := range tables.zipf {
		out = append(out, ZipfParams{N: k.n, Theta: math.Float64frombits(k.theta)})
	}
	return out
}
