// Package core implements Space Odyssey itself: the Query Processor that
// orchestrates query execution, the Adaptor (incremental per-dataset
// octrees, package octree), the Statistics Collector that tracks which
// dataset combinations are queried together and which partitions they
// touch, and the Merger that reorganizes the disk layout by copying
// partitions of frequently co-queried datasets into sequential merge files.
package core

import (
	"slices"
	"strconv"

	"spaceodyssey/internal/object"
	"spaceodyssey/internal/octree"
)

// ComboKey canonically identifies a combination of datasets (sorted,
// comma-separated ids).
type ComboKey string

// CacheStats is the result-cache ledger (Config.CacheResults): what the
// cache saved and how it is being maintained. All zeros with
// caching off. See resultcache.go for the mechanism.
type CacheStats struct {
	// Hits counts partition and merge-segment reads answered from the
	// cache: an exact (dataset, cell) match.
	Hits int64
	// ContainmentHits counts whole per-dataset answers served by filtering
	// a cached region that contains the query's extended window — zero
	// device reads, no tree walk.
	ContainmentHits int64
	// Misses counts exact lookups that found nothing.
	Misses int64
	// Inserts counts completed scans retained.
	Inserts int64
	// Evictions counts entries removed by the capacity bound (coldest
	// first).
	Evictions int64
	// Invalidations counts flushes (FlushResultCache) plus the targeted
	// drops of layout publishes — a refinement's dataset, a merge's
	// published keys — that removed at least one entry. A flush or drop
	// that removed nothing is not counted — the field measures removals,
	// not publish frequency.
	Invalidations int64
	// ZeroReadQueries counts queries whose whole read side was served
	// without any device read: every partition or segment came from the
	// cache (or from another query's in-flight scan). Maintenance I/O
	// (refinement, merging) is not attributed to queries here.
	ZeroReadQueries int64
	// Entries and CachedObjects describe the current cache occupancy.
	Entries       int
	CachedObjects int64
	// Capacity is the current object budget — fixed at Config.CacheCapacity
	// normally, floating under Config.AdaptiveCache.
	Capacity int64
	// GhostHits counts capacity misses: lookups that missed the cache but
	// hit a shadow-LRU ghost of a recently evicted key — reads a bigger
	// cache would have served. Only tracked under AdaptiveCache.
	GhostHits int64
	// CapacityGrows and CapacityShrinks count the adaptive tuner's moves.
	CapacityGrows   int64
	CapacityShrinks int64
}

// KeyOf returns the canonical key for a set of datasets.
func KeyOf(datasets []object.DatasetID) ComboKey {
	ids := append([]object.DatasetID(nil), datasets...)
	slices.Sort(ids)
	return keyOfSorted(ids)
}

// keyOfSorted is KeyOf for ids already in ascending order. It renders into a
// buffer on the stack (for combinations of the usual few members): the one
// allocation is the key itself.
func keyOfSorted(ids []object.DatasetID) ComboKey {
	var buf [64]byte
	b := buf[:0]
	for i, ds := range ids {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendUint(b, uint64(ds), 10)
	}
	return ComboKey(b)
}

// Collector is the Statistics Collector of Figure 1: it records, per
// combination C, (1) how often C has been queried and (2) which partitions
// have been retrieved in the context of C.
type Collector struct {
	counts     map[ComboKey]int
	partitions map[ComboKey]map[octree.Key]struct{}
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{
		counts:     make(map[ComboKey]int),
		partitions: make(map[ComboKey]map[octree.Key]struct{}),
	}
}

// RecordQuery increments the retrieval count of the combination and returns
// the new count.
func (c *Collector) RecordQuery(key ComboKey) int {
	c.counts[key]++
	return c.counts[key]
}

// RecordPartitions adds the partitions a query touched to the combination's
// accumulated set.
func (c *Collector) RecordPartitions(key ComboKey, parts []octree.Key) {
	set, ok := c.partitions[key]
	if !ok {
		set = make(map[octree.Key]struct{})
		c.partitions[key] = set
	}
	for _, p := range parts {
		set[p] = struct{}{}
	}
}

// Count returns how many times the combination has been queried.
func (c *Collector) Count(key ComboKey) int { return c.counts[key] }

// NumPartitions returns the size of the combination's accumulated partition
// set without copying it.
func (c *Collector) NumPartitions(key ComboKey) int { return len(c.partitions[key]) }

// PartitionsUnsorted returns a copy of the combination's accumulated
// partition keys in map order. Callers that do not need the deterministic
// layout order of Partitions (e.g. coverage checks) use it to skip the
// sort.
func (c *Collector) PartitionsUnsorted(key ComboKey) []octree.Key {
	set := c.partitions[key]
	out := make([]octree.Key, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	return out
}

// Partitions returns the accumulated partition keys of the combination in
// the canonical (level, z, y, x) order.
func (c *Collector) Partitions(key ComboKey) []octree.Key {
	out := c.PartitionsUnsorted(key)
	sortKeys(out)
	return out
}

// Reset clears the statistics of one combination (used after a merge file
// for it is evicted, so it must re-earn merging).
func (c *Collector) Reset(key ComboKey) {
	delete(c.counts, key)
	delete(c.partitions, key)
}

// Combinations returns the number of distinct combinations seen.
func (c *Collector) Combinations() int { return len(c.counts) }
