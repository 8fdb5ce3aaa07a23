// Package cache stands at a component import path the snapshotcheck
// analyzer audits by default.
package cache

// Cache's Clone copies it whole but forgets its tag array.
type Cache struct {
	ways     []uint64 // want `reference field Cache.ways is shared by the whole-value copy in Clone`
	accesses uint64
}

func (c *Cache) Clone() *Cache {
	n := *c
	return &n
}
