// Package cache stands at a component import path the snapshotcheck
// analyzer audits by default, with the Snapshot:RestoreSnapshot pair.
package cache

// Cache snapshots its ways but not its access count.
type Cache struct {
	ways     []uint64
	accesses uint64 // want `field Cache.accesses is not captured by Snapshot`
}

func (c *Cache) Snapshot() []uint64 { return append([]uint64(nil), c.ways...) }

func (c *Cache) RestoreSnapshot(ways []uint64) error {
	copy(c.ways, ways)
	return nil
}
