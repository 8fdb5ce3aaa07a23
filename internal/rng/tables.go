package rng

import "sync"

// tables caches the samplers' immutable lookup tables for the life of the
// process, keyed by the parameters they depend on. A sweep rebuilds every
// workload generator at every operating point, but the parameters come
// from the registered workload profiles, so the cache holds a handful of
// entries and each table is built once. Nothing is built at package init.
var tables struct {
	mu   sync.Mutex
	geo  map[uint64]*Geometric // by math.Float64bits(p)
	zipf map[zipfKey]*zipfTable
}

type zipfKey struct {
	n     int
	theta uint64 // math.Float64bits(theta)
}

// shared returns the cached value for key in *m, building it on first use.
func shared[K comparable, V any](m *map[K]V, key K, build func() V) V {
	tables.mu.Lock()
	defer tables.mu.Unlock()
	if v, ok := (*m)[key]; ok {
		return v
	}
	if *m == nil {
		*m = make(map[K]V)
	}
	v := build()
	(*m)[key] = v
	return v
}
