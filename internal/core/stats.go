// Package core implements Space Odyssey itself: the Query Processor that
// orchestrates query execution, the Adaptor (incremental per-dataset
// octrees, package octree), the Statistics Collector — one record per
// dataset combination (combo) counting its queries and the partitions they
// touch, beside the rest of its merge state — and the Merger that
// reorganizes the disk layout by copying partitions of frequently co-queried
// datasets into sequential merge files.
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
	// ContainmentHits is always zero: every dataset of a query walks its
	// tree, and the cache answers only exact (dataset, cell) lookups. Kept so
	// that readers of the field still compile.
	//
	// Deprecated: read Hits.
	ContainmentHits int64
	// Misses counts exact lookups that found nothing.
	Misses int64
	// Inserts counts completed scans retained.
	Inserts int64
	// Evictions counts entries removed by the capacity bound (coldest
	// first).
	Evictions int64
	// Invalidations counts flushes (FlushResultCache) plus the targeted
	// drops of layout publishes — the cells a refinement split and their
	// cached ancestors, the published keys a merge could not regroup — that
	// removed at least one entry. A flush or drop that removed nothing is
	// not counted — the field measures removals, not publish frequency.
	Invalidations int64
	// ZeroReadQueries counts queries whose whole read side was served
	// without any device read: no device operation was charged to the
	// query's OpScope from routing to recording it, so every partition or
	// segment came from the cache (or from another query's in-flight scan);
	// the query's own read of an empty cell counts as one. A scope the
	// caller shares between concurrent queries is charged each one's
	// operations, as its Total is. Maintenance I/O (refinement, merging) is
	// not attributed to queries here.
	ZeroReadQueries int64
	// Entries and CachedObjects describe the current cache occupancy.
	Entries       int
	CachedObjects int64
	// Capacity is the object budget: Config.CacheCapacity, or
	// DefaultCacheCapacity when that is zero.
	Capacity int64
}

// KeyOf returns the canonical key for a set of datasets.
func KeyOf(datasets []object.DatasetID) ComboKey {
	ids := append([]object.DatasetID(nil), datasets...)
	slices.Sort(ids)
	var buf [64]byte
	return ComboKey(appendKey(buf[:0], ids))
}

// appendKey renders the key of ids, already in ascending order, onto b. A
// caller that renders into a buffer on its stack (64 bytes hold the usual few
// members) can look a key up without allocating it.
func appendKey(b []byte, ids []object.DatasetID) []byte {
	for i, ds := range ids {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendUint(b, uint64(ds), 10)
	}
	return b
}

// combo is the engine's one record of a dataset combination, interned per
// ComboKey in Odyssey.combos by the combination's first query. It is the
// Statistics Collector's entry of Figure 1 — how often the combination was
// queried and which partitions were retrieved in its context — and holds the
// rest of what merging keeps per combination: the futility mark, the merge
// file's recency and the maintainer's queue state. A record is never
// deleted: forget resets it in place, so a queued or running maintenance
// task never points at a dead record, and no key ever has two records.
//
// key and members are immutable; every other field is guarded by the lock
// named above it.
type combo struct {
	key     ComboKey
	members []object.DatasetID // sorted, no duplicates

	// Under Odyssey.statsMu.
	count  int                     // times queried since the last forget
	parts  map[octree.Key]struct{} // partitions retrieved in its context; nil for none
	futile futileMark

	// Under Merger.accMu: the tick of the last use of the combination's merge
	// file, which budget eviction orders files by. Every version of the file
	// (see Merger.publish) points at the record, so a tick by a query still
	// reading an older version counts.
	lastUsed int64

	// Under maintainer.mu.
	mergeItem *heatItem[*combo] // its queued merge task; nil when none is queued
	merging   bool              // a worker runs its merge step
}

// futileMark snapshots the state under which merging last had no work for a
// combination: a merge step that appended nothing (candidates can be
// unmergeable under the level policy — e.g. a key one tree has refined
// past), or a NeedsMerge scan that found everything covered. While neither
// the candidate count nor the layout epoch has changed, the merge step would
// be a no-op and both the exclusive lock and the coverage re-scan are
// skipped. The zero mark (set false) marks nothing.
type futileMark struct {
	set        bool
	candidates int
	epoch      int64
}

// addParts adds the partitions a query touched to the combination's set.
func (c *combo) addParts(parts []octree.Key) {
	if c.parts == nil {
		c.parts = make(map[octree.Key]struct{})
	}
	for _, p := range parts {
		c.parts[p] = struct{}{}
	}
}

// partitionsUnsorted returns a copy of the combination's partition keys in
// map order, for callers that need no order (coverage checks).
func (c *combo) partitionsUnsorted() []octree.Key {
	out := make([]octree.Key, 0, len(c.parts))
	for k := range c.parts {
		out = append(out, k)
	}
	return out
}

// partitions returns a copy of the combination's partition keys in the
// canonical (level, z, y, x) order, the order a merge step copies them in.
func (c *combo) partitions() []octree.Key {
	out := c.partitionsUnsorted()
	sortKeys(out)
	return out
}

// forget resets a combination whose merge file was evicted (the space
// budget, a repair): it must re-earn merging from zero. Called under statsMu
// before the eviction releases the layout lock: a concurrent query that
// observed the eviction with stale pre-eviction counts would immediately
// re-merge the combination from its old candidates, thrashing the budget.
func (c *combo) forget() {
	c.count = 0
	c.parts = nil
	c.futile = futileMark{}
}
