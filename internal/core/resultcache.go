package core

import (
	"container/heap"
	"iter"
	"slices"
	"sync"
	"sync/atomic"

	"spaceodyssey/internal/geom"
	"spaceodyssey/internal/object"
	"spaceodyssey/internal/octree"
)

// DefaultCacheCapacity is the result cache's object budget when
// Config.CacheCapacity is zero: 2 Mi objects. On the repository benchmark's
// scan workload a smaller budget evicts cells the sweep reads again. The
// budget is a bound, not a reservation: a cache whose working set is smaller
// holds only that.
const DefaultCacheCapacity = 1 << 21

// cachedScan is one completed partition or merge-segment scan the cache
// retains: the full content of its cell, with the child directory of the
// content it is (see cellContent), and its heat, in the entry a partition
// points at (octree.CacheEntry). Everything but its eviction state is
// immutable once inserted: Regroup, which changes a cell's content from file
// order to the same objects grouped, installs a new entry. The content is
// shared with every query the entry answers and must be treated as read-only
// (the engine only filters from it — objects are values).
type cachedScan struct {
	// The content and the live heat: a hit raises Heat with an atomic, under
	// the cache's shared lock or, through the partition, under none.
	octree.CacheEntry
	key scanKey
	// part is the tree partition whose key the entry stores, which points at
	// the entry while it is cached (nil when the read that inserted it did not
	// know it).
	part *octree.Partition

	// The live eviction key is (Heat, seq); seq is fixed at insert.
	seq int64

	// Guarded by the cache's exclusive lock: the entry's slot in the eviction
	// heap and the heat that slot was chosen by (see coldHeap).
	index   int
	posHeat int64
}

// contentOf is the cell content an entry holds.
func contentOf(e *octree.CacheEntry) cellContent {
	return cellContent{objs: e.Objs, children: e.Children}
}

// hitEntry books a hit on the entry's heat and returns its content; the
// caller books it on the cache.
func hitEntry(e *octree.CacheEntry) cellContent {
	e.Heat.Add(1)
	return contentOf(e)
}

// unlink clears its partition's pointer to the entry, if it has one. Caller
// holds the cache's lock exclusively.
func (s *cachedScan) unlink() {
	if s.part != nil {
		s.part.SetCached(nil)
	}
}

// reposition brings the key the heap holds the entry by up to its live key
// and reports whether it had fallen behind. Caller holds the exclusive lock,
// which keeps out hits through the map but not lock-free ones through a
// partition: one that lands after the load is seen by the next eviction, so
// only the choice of victim can differ (see coldHeap). Caller fixes the heap.
func (s *cachedScan) reposition() bool {
	heat := s.Heat.Load()
	if heat == s.posHeat {
		return false
	}
	s.posHeat = heat
	return true
}

// coldHeap is a min-heap of cached scans by (heat, FIFO): the coldest —
// and, among equals, oldest — entry surfaces first for eviction.
//
// The heap is lazy. A hit does no heap work: it raises the entry's live key
// and leaves the heap ordered by the keys entries were last positioned by,
// which are therefore lower bounds of the live ones. Eviction repairs the
// top until its recorded key is current; that entry's live key is then below
// every other recorded — hence live — key, so the victim is exactly the one
// a heap fixed on every hit would surface. Nothing else observes the order.
// A hit through a partition takes no lock, so one may land while an eviction
// runs: the eviction then sees the heat from just before it, and only the
// choice of victim can differ.
type coldHeap []*cachedScan

func (h coldHeap) Len() int { return len(h) }
func (h coldHeap) Less(i, j int) bool {
	return h[i].posHeat < h[j].posHeat || h[i].posHeat == h[j].posHeat && h[i].seq < h[j].seq
}
func (h coldHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index, h[j].index = i, j
}
func (h *coldHeap) Push(x any) {
	it := x.(*cachedScan)
	it.index = len(*h)
	*h = append(*h, it)
}
func (h *coldHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return it
}

// resultCache is the result cache behind Config.CacheResults: completed
// partition scans and merge-segment reads are retained keyed on (dataset,
// cell), so a later query of the same cell is served without touching the
// device — the temporal extension of the single-flight sharing that readCell
// runs beside it.
// Capacity is bounded in cached objects with heat-aware eviction: every hit
// bumps the entry's access count, eviction removes the coldest entry first.
//
// An entry is exact for as long as it is cached, whatever the layout does
// meanwhile. Every representation of a cell — a level-0 partition, a refined
// child, a merge segment of either level policy, a re-derived partition —
// holds exactly the objects of its dataset whose centres the tree's
// bucketing puts in the cell (see octree.Tree.Rederive), and a dataset never
// changes once registered. What a layout change can make stale is only how
// cheap an entry is to filter, so a publish hands the cache only what it
// changed: a refinement drops the cells it split and their cached ancestors
// (DropKeys), which are now coarser than the leaves below them, and a merge
// swaps the file-order entries of the keys whose published segments carry a
// child directory for the segments' grouped content (Regroup) — a one-page
// segment stores, in file order, the cell an entry already holds. Builds,
// merge-file evictions and re-derivations drop nothing. A read that raced a
// publish is not kept (Insert).
//
// Being exact, an entry is also the first source of the cells adaptation
// reads: a refinement takes its leaf's objects from the cache, and a merge
// copy each member leaf's, wherever the pages written from the entry are
// byte for byte those a device read would give (see Odyssey.AddRaw and
// Merger.cachedLeaf). Maintenance reads an entry through the leaf's
// partition, read-only and unbooked: adapting the layout never changes what
// the cache thinks is hot.
//
// An entry is also what the tree partition whose key it stores points at,
// when the read that inserted it knew the partition (octree.Partition.
// SetCached), and every removal clears the pointer under the exclusive lock.
// A reader that knows its partition — a walk's leaf read, a merge read whose
// entry is the served leaf's own key, the walk's merge hook, a refinement's or
// a merge copy's source — reads the cell through that pointer, with no lock
// and no map probe; the map stays the index of the keys that have no
// partition (coarser merge entries, reads that did not know their leaf) and of
// the cache's own maintenance. A read-only walk also leaves a leaf with an
// entry whose extent misses the query unvisited, and books it here as the hit
// it would have been (hits). A pointer only decides whether a cell whose
// extent misses the query is read: a cell that is not cached still is, so the
// device sees the reads it always did.
//
// Locking: mu is a leaf lock (never held while acquiring any engine lock).
// Content is immutable and outlives its entry, so a caller may use what a
// lookup returned after a drop removed it or a regroup replaced it. A
// lookup through the map, hit or miss, holds mu shared: a map lookup and the
// atomic add of the entry's heat; one through a partition holds nothing: an
// atomic load of the pointer and the same add. Everything that changes the
// cache's structure, or what a partition points at, holds it exclusively:
// Insert and its evictions, DropKeys, Regroup's swaps and Invalidate.
type resultCache struct {
	bounds geom.Box
	// epoch is the engine's layout epoch, which Insert holds a read's
	// against.
	epoch *atomic.Int64

	capacity int64 // max cached objects across all entries

	mu      sync.RWMutex
	entries map[scanKey]*cachedScan
	cold    coldHeap
	objects int64 // cached objects across all entries
	seq     int64 // FIFO tiebreak for equal heat

	hits          atomic.Int64
	misses        atomic.Int64
	inserts       atomic.Int64
	evictions     atomic.Int64
	invalidations atomic.Int64
	zeroReads     atomic.Int64
}

// newResultCache creates an empty cache over the engine's exploration
// bounds; epoch is the engine's layout epoch (see Insert). capacity <= 0
// selects DefaultCacheCapacity.
func newResultCache(bounds geom.Box, capacity int64, epoch *atomic.Int64) *resultCache {
	if capacity <= 0 {
		capacity = DefaultCacheCapacity
	}
	return &resultCache{
		bounds:   bounds,
		epoch:    epoch,
		capacity: capacity,
		entries:  make(map[scanKey]*cachedScan),
	}
}

// hit is the lookup proper, under mu held either way: the content of key if
// cached, with the hit booked on the entry. The caller books it on the cache.
func (c *resultCache) hit(key scanKey) (cellContent, bool) {
	it, ok := c.entries[key]
	if !ok {
		return cellContent{}, false
	}
	return hitEntry(&it.CacheEntry), true
}

// Lookup returns the cached content of (ds, cell) if present. ok
// distinguishes a cached empty cell from a miss. part is the tree partition
// at cell, nil when the caller does not know it: a lookup through a partition
// reads the entry it points at and takes no lock, one without shares the
// lock.
func (c *resultCache) Lookup(ds object.DatasetID, cell octree.Key, part *octree.Partition) (cellContent, bool) {
	var content cellContent
	var ok bool
	if part != nil {
		if e := part.Cached(); e != nil {
			content, ok = hitEntry(e), true
		}
	} else {
		c.mu.RLock()
		content, ok = c.hit(scanKey{ds: ds, cell: cell})
		c.mu.RUnlock()
	}
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return content, ok
}

// LookupRun is Lookup for the leading hits of reads, under one shared
// acquisition: it appends to hits the content of every read up to the first
// that does not hit, and returns hits. The read that ended the run is not
// booked — it is the caller's to Lookup, miss and Insert before the next run
// — so readMerged issues the cache the operations of one Lookup per read, in
// order. The run's hits are booked together once the shared lock is
// released. The reads a query's merge hook answered through their leaves'
// partitions are booked before, in walk order (queryAcc.serve): at a budget
// that evicts, that order can change the victims, never a result.
func (c *resultCache) LookupRun(hits []cellContent, reads []mergeRead) []cellContent {
	n := len(hits)
	c.mu.RLock()
	for _, r := range reads {
		content, ok := c.hit(scanKey{ds: r.ds, cell: r.entry})
		if !ok {
			break
		}
		hits = append(hits, content)
	}
	c.mu.RUnlock()
	c.hits.Add(int64(len(hits) - n))
	return hits
}

// Insert retains a completed scan of (ds, cell): content is the cell's full
// content, epoch the layout epoch loaded before the read began, part the tree
// partition at cell the read served, if it knew it (nil otherwise), which
// points at the entry while it is cached. The read is kept only if that epoch is
// still current: a publish advances the epoch before it drops what it
// changed, so a read that raced one — and may hold the cell as it was laid
// out before — is never kept past the drop. Entries larger than the whole budget are not
// admitted; otherwise the coldest entries are evicted until the new one
// fits. Re-inserting a present key replaces its content and keeps its heat —
// the cell is evidently hot.
func (c *resultCache) Insert(ds object.DatasetID, cell octree.Key, part *octree.Partition, epoch int64, content cellContent) {
	key := scanKey{ds: ds, cell: cell}
	objs := content.objs
	c.mu.Lock()
	if epoch != c.epoch.Load() || int64(len(objs)) > c.capacity {
		c.mu.Unlock()
		return
	}
	it := &cachedScan{CacheEntry: octree.CacheEntry{Objs: objs, Children: content.children}, key: key, part: part, posHeat: 1}
	if old, ok := c.entries[key]; ok {
		it.posHeat = old.Heat.Load() + 1
		c.removeLocked(old)
	}
	for c.objects+int64(len(objs)) > c.capacity && len(c.cold) > 0 {
		victim := c.cold[0]
		if victim.reposition() {
			// Hit since it was last positioned: no longer known to be coldest.
			heap.Fix(&c.cold, 0)
			continue
		}
		c.removeLocked(victim)
		c.evictions.Add(1)
	}
	c.seq++
	it.seq = c.seq
	it.Heat.Store(it.posHeat)
	heap.Push(&c.cold, it)
	c.entries[key] = it
	if part != nil {
		part.SetCached(&it.CacheEntry)
	}
	c.objects += int64(len(objs))
	c.mu.Unlock()
	c.inserts.Add(1)
}

// removeLocked unlinks one entry from the map, the heap, the object budget
// and its partition. Caller holds mu exclusively.
func (c *resultCache) removeLocked(it *cachedScan) {
	it.unlink()
	delete(c.entries, it.key)
	heap.Remove(&c.cold, it.index)
	c.objects -= int64(len(it.Objs))
}

// DropKeys removes the entries of keys: a refinement split the cells, or
// split cells below them, so a cached copy is coarser than the leaves now
// there (splitCells). Counted as an invalidation when it removed anything.
func (c *resultCache) DropKeys(keys iter.Seq[scanKey]) {
	dropped := false
	c.mu.Lock()
	for key := range keys {
		if it := c.entries[key]; it != nil {
			c.removeLocked(it)
			dropped = true
		}
	}
	c.mu.Unlock()
	if dropped {
		c.invalidations.Add(1)
	}
}

// Regroup hands the cache the segments a merge step published, keyed as the
// merge file's entries, at the trees' fanout. An entry holding in file order
// the cell of a segment with a child directory takes the content a read of
// the segment returns: its objects grouped on the segment's grid
// (groupByChildren), with the segment's directory, and the swap is not an
// invalidation. Every tree partition holds its cell's objects in raw-file
// order (see octree.Tree.Rederive), as does the one-leaf copy a merge
// groups, so the regrouped objects are byte for byte the segment's; an entry
// whose count or regrouped directory differs from the segment's is removed
// instead. Keys the cache does not hold stay uncached, and entries already
// holding a directory are left as they are.
//
// The grouping runs off the lock on what a shared acquisition found; the
// exclusive one swaps an entry only if it is still the one found, with its
// content still in file order, and removes it if it was replaced by another
// file-order read. A swap installs a new entry — same key, heat, seq, heap
// slot and partition — and points the partition at it: a reader that loaded
// the old one keeps whole content, file order and no directory.
func (c *resultCache) Regroup(fanout int, segs map[scanKey]segment) {
	type swap struct {
		it      *cachedScan
		objs    []object.Object // the entry's file-order objects, as found
		content cellContent     // the grouped content; zero when it differs
	}
	var swaps []swap
	c.mu.RLock()
	for key, seg := range segs {
		if seg.children == nil {
			continue
		}
		if it := c.entries[key]; it != nil && it.Children == nil {
			swaps = append(swaps, swap{it: it, objs: it.Objs})
		}
	}
	c.mu.RUnlock()
	if len(swaps) == 0 {
		return
	}
	var dir []int32
	for i := range swaps {
		s := &swaps[i]
		seg := segs[s.it.key]
		if len(s.objs) != seg.count {
			continue
		}
		slab := make([]object.Object, len(s.objs))
		if dir = groupByChildren(dir[:0], c.bounds, s.it.key.cell, fanout, s.objs, slab); slices.Equal(dir, seg.children) {
			s.content = cellContent{objs: slab, children: seg.children}
		}
	}
	dropped := false
	c.mu.Lock()
	for _, s := range swaps {
		it := c.entries[s.it.key]
		switch {
		case it == nil || it.Children != nil:
			// Evicted, or grouped by another publish or read, since the peek.
		case it == s.it && s.content.objs != nil:
			c.replaceLocked(it, s.content)
		default:
			c.removeLocked(it)
			dropped = true
		}
	}
	c.mu.Unlock()
	if dropped {
		c.invalidations.Add(1)
	}
}

// replaceLocked installs an entry holding content in its place: the same
// key, heat, seq, heap slot and partition, which it points at. Caller holds mu
// exclusively. A lock-free hit through the partition that lands on the old
// entry between the heat's copy and the re-point is lost from the heat: the
// content it answered is exact, and only a later choice of victim can
// differ.
func (c *resultCache) replaceLocked(it *cachedScan, content cellContent) {
	n := &cachedScan{
		CacheEntry: octree.CacheEntry{Objs: content.objs, Children: content.children},
		key:        it.key, part: it.part, seq: it.seq, index: it.index, posHeat: it.posHeat,
	}
	n.Heat.Store(it.Heat.Load())
	c.entries[n.key] = n
	c.cold[n.index] = n
	if n.part != nil {
		n.part.SetCached(&n.CacheEntry)
	}
}

// Invalidate flushes the cache (Odyssey.FlushResultCache). A flush that finds
// the cache empty is not counted.
func (c *resultCache) Invalidate() {
	c.mu.Lock()
	flushed := len(c.entries) > 0
	if flushed {
		for _, it := range c.cold {
			it.unlink()
		}
		c.entries = make(map[scanKey]*cachedScan)
		c.cold = nil
		c.objects = 0
	}
	c.mu.Unlock()
	if flushed {
		c.invalidations.Add(1)
	}
}

// Stats snapshots the cache ledger.
func (c *resultCache) Stats() CacheStats {
	c.mu.RLock()
	entries, objects := len(c.entries), c.objects
	c.mu.RUnlock()
	return CacheStats{
		Hits:            c.hits.Load(),
		Misses:          c.misses.Load(),
		Inserts:         c.inserts.Load(),
		Evictions:       c.evictions.Load(),
		Invalidations:   c.invalidations.Load(),
		ZeroReadQueries: c.zeroReads.Load(),
		Entries:         entries,
		CachedObjects:   objects,
		Capacity:        c.capacity,
	}
}
