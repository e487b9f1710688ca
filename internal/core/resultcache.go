package core

import (
	"container/heap"
	"context"
	"math"
	"sync"
	"sync/atomic"

	"spaceodyssey/internal/geom"
	"spaceodyssey/internal/object"
	"spaceodyssey/internal/octree"
)

// DefaultCacheCapacity is the result cache's object budget when
// Config.CacheCapacity is zero: enough for the hot working set of the
// paper-scale experiments (~10 MB of object records) without letting an
// exploratory sweep pin every partition it ever touched.
const DefaultCacheCapacity = 1 << 17

// cachedScan is one completed partition or merge-segment scan the cache
// retains: the full object content of region (a cell box) as of the layout
// epoch it was read under. The slice is shared with every query the entry
// answers and must be treated as read-only (the engine only filters from
// it — objects are values).
type cachedScan struct {
	key    scanKey
	epoch  int64
	region geom.Box
	objs   []object.Object
}

// coldHeap is a min-heap of cached scans by (heat, FIFO): the coldest —
// and, among equals, oldest — entry surfaces first for eviction. It reuses
// the maintenance scheduler's heatItem access-count machinery with the
// comparison inverted: the maintainer drains hottest-first, the cache
// evicts coldest-first. Under Config.HeatHalfLife the decayed-heat score
// takes precedence (zero scores with decay off restore the legacy order),
// so a stale hotspot's once-hot entries cool down and become evictable.
type coldHeap []*heatItem[*cachedScan]

func (h coldHeap) Len() int { return len(h) }
func (h coldHeap) Less(i, j int) bool {
	if h[i].score != h[j].score {
		return h[i].score < h[j].score
	}
	if h[i].heat != h[j].heat {
		return h[i].heat < h[j].heat
	}
	return h[i].seq < h[j].seq
}
func (h coldHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index, h[j].index = i, j
}
func (h *coldHeap) Push(x any) {
	it := x.(*heatItem[*cachedScan])
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

// resultCache is the epoch-scoped result cache behind Config.CacheResults:
// completed partition scans and merge-segment reads are retained keyed on
// (dataset, cell) and tagged with the global layout epoch they were read
// under, so a later query of the same cell within the same epoch is served
// without touching the device — the temporal extension of readCell's
// single-flight sharing. Every layout publish (bumpLayoutEpoch)
// flushes the cache; entries inserted with a stale epoch are dropped lazily
// on their next lookup. Capacity is bounded in cached objects with
// heat-aware eviction: every hit bumps the entry's access count, eviction
// removes the coldest entry first.
//
// Beyond exact per-cell hits, the cache answers by containment: a query
// whose extended window lies inside a cached region is answered by
// filtering that region's objects — objects are keyed by center, so every
// object intersecting the query has its center inside the extended window
// and therefore inside the cached cell. AnswerContained is the probe.
//
// Locking: mu is a leaf lock (never held while acquiring any engine lock);
// callers hold the engine's shared layout lock, so entry content cannot be
// invalidated between a lookup and the caller's use of the slice.
type resultCache struct {
	bounds geom.Box

	// halfLife and tick wire heat decay in (see decay.go); both zero-valued
	// when Config.HeatHalfLife is off.
	halfLife float64
	tick     func() int64

	mu       sync.Mutex
	capacity int64 // max cached objects across all entries
	entries  map[scanKey]*heatItem[*cachedScan]
	// levels counts entries per (dataset, cell level) so the containment
	// probe only computes candidate ancestor keys for levels that can hit.
	levels  map[object.DatasetID]map[uint8]int
	cold    coldHeap
	objects int64 // cached objects across all entries
	seq     int64 // FIFO tiebreak for equal heat

	// Adaptive capacity (Config.AdaptiveCache): evicted keys linger as
	// shadow-LRU ghosts; a miss that hits a ghost within the same epoch is
	// a capacity miss — the entry would have hit had the cache been bigger
	// — and grows the budget toward the knee of the hit curve. Sustained
	// low occupancy with no evictions shrinks it back. Tuning runs between
	// layout epochs (Invalidate) and every tuneEvery operations, entirely
	// under mu; capacity only changes what the cache retains, never what a
	// query returns.
	adaptive       bool
	minCap, maxCap int64
	ghost          map[scanKey]struct{}
	ghostRing      []scanKey // FIFO bound for the ghost set
	ghostHitsWin   int64     // capacity misses since the last tune
	evictionsWin   int64
	peakObjects    int64
	sinceTune      int64
	ghostHits      int64 // lifetime counters, guarded by mu
	grows          int64
	shrinks        int64

	hits            atomic.Int64
	containmentHits atomic.Int64
	misses          atomic.Int64
	inserts         atomic.Int64
	evictions       atomic.Int64
	invalidations   atomic.Int64
	zeroReads       atomic.Int64
}

// Adaptive-capacity tuning constants: the ghost list remembers up to
// ghostCap evicted keys, tuning runs every tuneEvery cache operations (and
// on every layout epoch), growth needs growAfter capacity misses in a
// window, and a shrink fires when peak occupancy stayed under capacity/4
// with no evictions.
const (
	ghostCap  = 4096
	tuneEvery = 256
	growAfter = 8
)

// newResultCache creates an empty cache over the engine's exploration
// bounds. capacity <= 0 selects DefaultCacheCapacity.
func newResultCache(bounds geom.Box, capacity int64) *resultCache {
	if capacity <= 0 {
		capacity = DefaultCacheCapacity
	}
	return &resultCache{
		bounds:   bounds,
		capacity: capacity,
		entries:  make(map[scanKey]*heatItem[*cachedScan]),
		levels:   make(map[object.DatasetID]map[uint8]int),
	}
}

// enableAdaptive turns on self-tuning capacity around the configured
// starting capacity: the budget floats in [capacity/16, capacity*64].
func (c *resultCache) enableAdaptive() {
	c.mu.Lock()
	c.adaptive = true
	c.minCap = c.capacity / 16
	if c.minCap < 1024 {
		c.minCap = 1024
	}
	c.maxCap = c.capacity * 64
	c.ghost = make(map[scanKey]struct{})
	c.mu.Unlock()
}

// touchLocked bumps a hit entry's heat (and decayed score) and repositions
// it in the eviction heap. Caller holds mu.
func (c *resultCache) touchLocked(it *heatItem[*cachedScan]) {
	it.heat++
	if c.halfLife > 0 {
		it.score = bumpScore(it.score, c.tick(), c.halfLife)
	}
	heap.Fix(&c.cold, it.index)
}

// noteGhostLocked records a capacity miss when the missed key is still on
// the ghost list. Caller holds mu.
func (c *resultCache) noteGhostLocked(key scanKey) {
	if !c.adaptive {
		return
	}
	if _, ok := c.ghost[key]; ok {
		c.ghostHitsWin++
		c.ghostHits++
	}
}

// pushGhostLocked remembers an evicted key on the bounded shadow list.
// Caller holds mu.
func (c *resultCache) pushGhostLocked(key scanKey) {
	if !c.adaptive {
		return
	}
	if _, ok := c.ghost[key]; ok {
		return
	}
	if len(c.ghostRing) >= ghostCap {
		delete(c.ghost, c.ghostRing[0])
		c.ghostRing = c.ghostRing[1:]
	}
	c.ghost[key] = struct{}{}
	c.ghostRing = append(c.ghostRing, key)
}

// maybeTuneLocked runs the capacity tuner on its operation cadence.
// Caller holds mu.
func (c *resultCache) maybeTuneLocked() {
	if !c.adaptive {
		return
	}
	if c.sinceTune++; c.sinceTune >= tuneEvery {
		c.tuneLocked()
	}
}

// tuneLocked moves capacity toward the knee of the observed hit curve:
// ghost re-misses in the window mean entries the budget pushed out were
// still wanted (grow — the hit curve is still climbing past the current
// size); an eviction-free window that never filled a quarter of the budget
// means the curve flattened well below it (shrink). Caller holds mu.
func (c *resultCache) tuneLocked() {
	if c.peakObjects < c.objects {
		c.peakObjects = c.objects
	}
	switch {
	case c.ghostHitsWin >= growAfter && c.capacity < c.maxCap:
		c.capacity *= 2
		if c.capacity > c.maxCap {
			c.capacity = c.maxCap
		}
		c.grows++
	case c.evictionsWin == 0 && c.ghostHitsWin == 0 &&
		c.peakObjects*4 <= c.capacity && c.capacity > c.minCap:
		c.capacity /= 2
		if c.capacity < c.minCap {
			c.capacity = c.minCap
		}
		c.shrinks++
	}
	c.ghostHitsWin = 0
	c.evictionsWin = 0
	c.peakObjects = c.objects
	c.sinceTune = 0
}

// Lookup returns the cached content of (ds, cell) if present at the given
// layout epoch. A present entry from an older epoch is dead (the global
// epoch only advances) and is dropped on sight. ok distinguishes a cached
// empty cell from a miss.
func (c *resultCache) Lookup(ds object.DatasetID, cell octree.Key, epoch int64) ([]object.Object, bool) {
	key := scanKey{ds: ds, cell: cell}
	c.mu.Lock()
	it, ok := c.entries[key]
	if !ok {
		c.noteGhostLocked(key)
		c.maybeTuneLocked()
		c.mu.Unlock()
		c.misses.Add(1)
		return nil, false
	}
	if it.task.epoch != epoch {
		c.removeLocked(it)
		c.maybeTuneLocked()
		c.mu.Unlock()
		c.misses.Add(1)
		return nil, false
	}
	c.touchLocked(it)
	c.maybeTuneLocked()
	objs := it.task.objs
	c.mu.Unlock()
	c.hits.Add(1)
	return objs, true
}

// AnswerContained probes for any cached region of ds (at the given epoch)
// containing ext, the query window already extended by the tree's max
// object half-extent. Because cached regions are cell boxes of the uniform
// k^level grid, the only candidate at each level is the cell containing
// ext's min corner — one map lookup per cached level, not a scan. The
// returned slice is the full region content; the caller filters by the
// original query box.
func (c *resultCache) AnswerContained(ds object.DatasetID, fanout int, epoch int64,
	ext geom.Box) ([]object.Object, bool) {
	c.mu.Lock()
	for level := range c.levels[ds] {
		cell, ok := cellAt(c.bounds, fanout, level, ext.Min)
		if !ok {
			continue
		}
		it, ok := c.entries[scanKey{ds: ds, cell: cell}]
		if !ok {
			continue
		}
		if it.task.epoch != epoch {
			c.removeLocked(it)
			continue
		}
		if !it.task.region.Contains(ext) {
			continue
		}
		c.touchLocked(it)
		objs := it.task.objs
		c.mu.Unlock()
		c.containmentHits.Add(1)
		return objs, true
	}
	c.mu.Unlock()
	return nil, false
}

// cellAt returns the key of the level-cell of the uniform fanout^level grid
// over bounds containing point p, false when p lies outside bounds or the
// level's grid exceeds the key coordinate space.
func cellAt(bounds geom.Box, fanout int, level uint8, p geom.Vec) (octree.Key, bool) {
	if !bounds.ContainsPoint(p) {
		return octree.Key{}, false
	}
	cells := math.Pow(float64(fanout), float64(level))
	if cells > float64(math.MaxUint32) {
		return octree.Key{}, false
	}
	size := bounds.Size()
	idx := func(lo, sz, v float64) uint32 {
		i := int64((v - lo) / sz * cells)
		if i < 0 {
			i = 0
		}
		if i >= int64(cells) {
			i = int64(cells) - 1
		}
		return uint32(i)
	}
	return octree.Key{
		Level: level,
		X:     idx(bounds.Min.X, size.X, p.X),
		Y:     idx(bounds.Min.Y, size.Y, p.Y),
		Z:     idx(bounds.Min.Z, size.Z, p.Z),
	}, true
}

// Insert retains a completed scan of (ds, cell): region is the cell box the
// objects are the full content of, epoch the global layout epoch loaded
// before the read began (a publish racing the read leaves a dead entry that
// never hits — conservative, correct). Entries larger than the whole budget
// are not admitted; otherwise the coldest entries are evicted until the new
// one fits. Re-inserting a present key replaces its content and keeps its
// heat — the region is evidently hot.
func (c *resultCache) Insert(ds object.DatasetID, cell octree.Key, epoch int64,
	region geom.Box, objs []object.Object) {
	key := scanKey{ds: ds, cell: cell}
	c.mu.Lock()
	if int64(len(objs)) > c.capacity {
		// An entry that cannot fit at all is the strongest undersizing
		// signal there is: with adaptive capacity, grow until it can
		// (bounded by maxCap); otherwise reject as before.
		if !c.adaptive || int64(len(objs)) > c.maxCap {
			c.mu.Unlock()
			return
		}
		for c.capacity < int64(len(objs)) && c.capacity < c.maxCap {
			c.capacity *= 2
		}
		if c.capacity > c.maxCap {
			c.capacity = c.maxCap
		}
		c.grows++
	}
	heat := int64(1)
	score := float64(0)
	if c.halfLife > 0 {
		score = heatScore(1, c.tick(), c.halfLife)
	}
	if old, ok := c.entries[key]; ok {
		heat = old.heat + 1
		if c.halfLife > 0 {
			score = bumpScore(old.score, c.tick(), c.halfLife)
		}
		c.removeLocked(old)
	}
	for c.objects+int64(len(objs)) > c.capacity && len(c.cold) > 0 {
		evicted := c.cold[0]
		c.pushGhostLocked(evicted.task.key)
		c.removeLocked(evicted)
		c.evictions.Add(1)
		c.evictionsWin++
	}
	c.seq++
	it := &heatItem[*cachedScan]{
		task:  &cachedScan{key: key, epoch: epoch, region: region, objs: objs},
		heat:  heat,
		score: score,
		seq:   c.seq,
	}
	heap.Push(&c.cold, it)
	c.entries[key] = it
	lv := c.levels[ds]
	if lv == nil {
		lv = make(map[uint8]int)
		c.levels[ds] = lv
	}
	lv[cell.Level]++
	c.objects += int64(len(objs))
	if c.objects > c.peakObjects {
		c.peakObjects = c.objects
	}
	if c.adaptive {
		// The key is cached again — it is no longer a ghost (the ring keeps
		// a harmless stale copy that pushGhostLocked dedupes against).
		delete(c.ghost, key)
	}
	c.maybeTuneLocked()
	c.mu.Unlock()
	c.inserts.Add(1)
}

// removeLocked unlinks one entry from the map, the heap, the level index
// and the object budget. Caller holds mu.
func (c *resultCache) removeLocked(it *heatItem[*cachedScan]) {
	delete(c.entries, it.task.key)
	heap.Remove(&c.cold, it.index)
	c.objects -= int64(len(it.task.objs))
	ds, level := it.task.key.ds, it.task.key.cell.Level
	if lv := c.levels[ds]; lv != nil {
		if lv[level]--; lv[level] <= 0 {
			delete(lv, level)
		}
		if len(lv) == 0 {
			delete(c.levels, ds)
		}
	}
}

// Invalidate flushes the cache on a layout publish. A publish that finds the
// cache empty is not counted — Invalidations measures actual flushes.
func (c *resultCache) Invalidate() {
	c.mu.Lock()
	flushed := len(c.entries) > 0
	if c.adaptive {
		// The epoch boundary is the tuning point the hit curve was observed
		// for; ghosts from the dying epoch would misread the coming
		// compulsory misses as capacity misses, so they flush too.
		c.tuneLocked()
		c.ghost = make(map[scanKey]struct{})
		c.ghostRing = nil
	}
	if flushed {
		c.entries = make(map[scanKey]*heatItem[*cachedScan])
		c.levels = make(map[object.DatasetID]map[uint8]int)
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
	c.mu.Lock()
	entries, objects := len(c.entries), c.objects
	capacity := c.capacity
	ghostHits, grows, shrinks := c.ghostHits, c.grows, c.shrinks
	c.mu.Unlock()
	return CacheStats{
		Hits:            c.hits.Load(),
		ContainmentHits: c.containmentHits.Load(),
		Misses:          c.misses.Load(),
		Inserts:         c.inserts.Load(),
		Evictions:       c.evictions.Load(),
		Invalidations:   c.invalidations.Load(),
		ZeroReadQueries: c.zeroReads.Load(),
		Entries:         entries,
		CachedObjects:   objects,
		Capacity:        capacity,
		GhostHits:       ghostHits,
		CapacityGrows:   grows,
		CapacityShrinks: shrinks,
	}
}

// cacheScope tracks whether one query performed any device read on its read
// side. QueryCtx installs a scope in the context; the layers that actually
// perform I/O — the wrapped partition read under the share-reader hook,
// merge-segment reads on a cache miss, level-0 builds and refinements —
// mark it. A query whose scope stays clean was answered entirely from the
// result cache: zero device reads.
type cacheScope struct {
	missed atomic.Bool
}

// cacheScopeKey is the context key for the per-query cacheScope.
type cacheScopeKey struct{}

// withCacheScope attaches a fresh scope to ctx.
func withCacheScope(ctx context.Context) (context.Context, *cacheScope) {
	s := &cacheScope{}
	return context.WithValue(ctx, cacheScopeKey{}, s), s
}

// missCacheScope marks the context's query (if any) as having performed
// device I/O. Called by the goroutine doing the read, inside the wrapped
// read function — a query attached to another's single-flight scan stays
// clean, which is correct: it charged no device read of its own.
func missCacheScope(ctx context.Context) {
	if s, _ := ctx.Value(cacheScopeKey{}).(*cacheScope); s != nil {
		s.missed.Store(true)
	}
}
