package core

import (
	"container/heap"
	"context"
	"iter"
	"math"
	"math/bits"
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
// retains: the full content of region (a cell box), with the child directory
// of the content it is (see cellContent). Everything but its eviction state
// is immutable once inserted: the content is shared with every query the
// entry answers and must be treated as read-only (the engine only filters
// from it — objects are values).
type cachedScan struct {
	key     scanKey
	region  geom.Box
	content cellContent
	// part is the tree partition whose key the entry stores, marked while the
	// entry is cached (nil when the read that inserted it did not know it).
	part *octree.Partition

	// The live eviction key is (score, heat, seq). Hits raise heat and score
	// with atomics, under the cache's shared lock; seq is fixed at insert.
	heat  atomic.Int64
	score atomic.Uint64 // math.Float64bits of the decayed-heat key (decay.go); 0 with decay off
	seq   int64

	// Guarded by the cache's exclusive lock: the entry's slot in the eviction
	// heap and the key that slot was chosen by (see coldHeap).
	index    int
	posHeat  int64
	posScore float64
}

// touch books one hit on the entry: the access count, and under
// Config.HeatHalfLife the decayed score as of tick. Both only ever rise —
// bumpScore never returns less than the score it bumps — which is what lets
// the eviction heap go unrepaired between evictions.
func (s *cachedScan) touch(tick int64, halfLife float64) {
	s.heat.Add(1)
	if halfLife <= 0 {
		return
	}
	for {
		old := s.score.Load()
		score := math.Float64frombits(old)
		next := bumpScore(score, tick, halfLife)
		if next == score || s.score.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// unmark clears the mark of the entry's partition, if it has one. Caller
// holds the cache's lock exclusively.
func (s *cachedScan) unmark() {
	if s.part != nil {
		s.part.SetMarked(false)
	}
}

// reposition brings the key the heap holds the entry by up to its live key
// and reports whether it had fallen behind. Caller holds the exclusive lock
// (no hit is in flight) and fixes the heap.
func (s *cachedScan) reposition() bool {
	heat, score := s.heat.Load(), math.Float64frombits(s.score.Load())
	if heat == s.posHeat && score == s.posScore {
		return false
	}
	s.posHeat, s.posScore = heat, score
	return true
}

// coldHeap is a min-heap of cached scans by (score, heat, FIFO): the coldest
// — and, among equals, oldest — entry surfaces first for eviction. Under
// Config.HeatHalfLife the decayed-heat score takes precedence (zero scores
// with decay off restore the legacy order), so a stale hotspot's once-hot
// entries cool down and become evictable.
//
// The heap is lazy. A hit does no heap work: it raises the entry's live key
// and leaves the heap ordered by the keys entries were last positioned by,
// which are therefore lower bounds of the live ones. Eviction repairs the
// top until its recorded key is current; that entry's live key is then below
// every other recorded — hence live — key, so the victim is exactly the one
// a heap fixed on every hit would surface. Nothing else observes the order.
type coldHeap []*cachedScan

func (h coldHeap) Len() int { return len(h) }
func (h coldHeap) Less(i, j int) bool {
	if h[i].posScore != h[j].posScore {
		return h[i].posScore < h[j].posScore
	}
	if h[i].posHeat != h[j].posHeat {
		return h[i].posHeat < h[j].posHeat
	}
	return h[i].seq < h[j].seq
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

// maxProbeLevel is the deepest cell level the containment probe indexes:
// octree.CellAt cannot address a grid of more than 2^32 cells a side, which
// every fanout (>= 2) exceeds past level 31.
const maxProbeLevel = 31

// levelIndex counts one dataset's cached entries per cell level, with a bit
// per occupied level, so the containment probe visits exactly the levels
// that can hit, deepest first.
type levelIndex struct {
	mask  uint32
	count [maxProbeLevel + 1]int32
}

func (l *levelIndex) add(level uint32, delta int32) {
	if level > maxProbeLevel {
		return
	}
	if l.count[level] += delta; l.count[level] > 0 {
		l.mask |= 1 << level
	} else {
		l.mask &^= 1 << level
	}
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
// cheap an entry is to filter, so a publish drops only what it made coarse
// or unindexed: a refinement drops its dataset's entries (DropDataset), a
// merge only the keys whose published segments carry a child directory
// (DropKeys) — a one-page segment stores, in file order, the cell an entry
// already holds. Builds, merge-file evictions and re-derivations drop
// nothing. A read that raced a publish is not kept (Insert).
//
// Being exact, an entry is also the first source of the cells adaptation
// reads: a refinement takes its leaf's objects from the cache, and a merge
// copy each member leaf's, wherever the pages written from the entry are
// byte for byte those a device read would give (see Odyssey.AddRaw and
// Merger.cachedLeaf). Maintenance reads entries through Peek, read-only and
// unbooked: adapting the layout never changes what the cache thinks is hot.
//
// Beyond exact per-cell hits, the cache answers by containment: a query
// whose extended window lies inside a cached region is answered by
// filtering that region's objects — objects are keyed by center, so every
// object intersecting the query has its center inside the extended window
// and therefore inside the cached cell. AnswerContained is the probe.
//
// An entry also marks the tree partition whose key it stores, when the read
// that inserted it knew the partition (octree.Partition.SetMarked), and every
// removal clears the mark under the exclusive lock: a read-only walk leaves a
// marked leaf whose extent misses the query unvisited, and books it here as
// the hit it would have been (book). A mark only decides whether a cell whose
// extent misses the query is read: a cell that is not cached still is, so the
// device sees the reads it always did.
//
// Locking: mu is a leaf lock (never held while acquiring any engine lock).
// Content is immutable and outlives its entry, so a caller may use what a
// lookup returned after a drop removed it. A hit — exact or by containment —
// holds mu shared: a map lookup and the atomics of cachedScan.touch.
// Everything that changes the cache's structure holds it exclusively: a miss
// (ghost accounting), Insert and its evictions, the tuner, the drops and
// Invalidate.
type resultCache struct {
	bounds geom.Box
	// epoch is the engine's layout epoch, which Insert holds a read's
	// against.
	epoch *atomic.Int64

	// halfLife and tick wire heat decay in (see decay.go); both zero-valued
	// when Config.HeatHalfLife is off.
	halfLife float64
	tick     func() int64

	mu       sync.RWMutex
	capacity int64 // max cached objects across all entries
	entries  map[scanKey]*cachedScan
	// levels indexes the cached cell levels per dataset for the containment
	// probe.
	levels  map[object.DatasetID]*levelIndex
	cold    coldHeap
	objects int64 // cached objects across all entries
	seq     int64 // FIFO tiebreak for equal heat

	// Adaptive capacity (Config.AdaptiveCache): evicted keys linger as
	// shadow-LRU ghosts; a miss that hits a ghost is a capacity miss — the
	// entry would have hit had the cache been bigger — and grows the budget
	// toward the knee of the hit curve. Sustained low occupancy with no
	// evictions shrinks it back. Tuning runs on a flush (Invalidate) and
	// every tuneEvery operations, entirely under the exclusive mu
	// (sinceTune, the cadence counter, is atomic because hits, booked
	// outside the lock, count too); capacity only changes what the cache
	// retains, never what a query returns.
	adaptive       bool // set before the first operation, constant afterwards
	minCap, maxCap int64
	ghost          map[scanKey]struct{}
	ghostRing      []scanKey // FIFO bound for the ghost set
	ghostHitsWin   int64     // capacity misses since the last tune
	evictionsWin   int64
	peakObjects    int64
	sinceTune      atomic.Int64
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
// on every flush), growth needs growAfter capacity misses in a
// window, and a shrink fires when peak occupancy stayed under capacity/4
// with no evictions.
const (
	ghostCap  = 4096
	tuneEvery = 256
	growAfter = 8
)

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
		levels:   make(map[object.DatasetID]*levelIndex),
	}
}

// enableAdaptive turns on self-tuning capacity around the configured
// starting capacity: the budget floats in [capacity/16, capacity*64], the
// floor at least 1,024 objects, and a start below the floor is raised to it
// (neither tuner case could ever move it from there).
func (c *resultCache) enableAdaptive() {
	c.mu.Lock()
	c.adaptive = true
	c.minCap = max(c.capacity/16, 1024)
	c.maxCap = max(c.capacity*64, c.minCap)
	c.capacity = max(c.capacity, c.minCap)
	c.ghost = make(map[scanKey]struct{})
	c.mu.Unlock()
}

// noteGhostLocked records a capacity miss when the missed key is still on
// the ghost list. Caller holds mu exclusively.
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
// Caller holds mu exclusively.
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

// maybeTuneLocked counts one operation toward the tuner's cadence and tunes if
// due. Caller holds mu exclusively.
func (c *resultCache) maybeTuneLocked() {
	if c.adaptive && c.sinceTune.Add(1) >= tuneEvery {
		c.tuneDueLocked()
	}
}

// book counts n hits served under the shared lock, on the ledger and toward
// the tuner's cadence, once for the lot, for a caller holding no lock, and
// tunes if they made the tuner due. Hits change none of the tuner's inputs,
// so a tune falling due inside a run of hits decides the same after it. Of
// the callers that cross the cadence together, one tunes.
func (c *resultCache) book(n int) {
	if n == 0 {
		return
	}
	c.hits.Add(int64(n))
	if c.adaptive && c.sinceTune.Add(int64(n)) >= tuneEvery {
		c.mu.Lock()
		c.tuneDueLocked()
		c.mu.Unlock()
	}
}

// tuneDueLocked tunes once for every tuneEvery operations counted since the
// last tune and carries the excess, so the tuner runs at the operation counts
// it would if every operation were counted on its own. Caller holds mu
// exclusively.
func (c *resultCache) tuneDueLocked() {
	for c.sinceTune.Load() >= tuneEvery {
		c.tuneLocked()
		c.sinceTune.Add(-tuneEvery)
	}
}

// tuneLocked moves capacity toward the knee of the observed hit curve:
// ghost re-misses in the window mean entries the budget pushed out were
// still wanted (grow — the hit curve is still climbing past the current
// size); an eviction-free window that never filled a quarter of the budget
// means the curve flattened well below it (shrink). Caller holds mu
// exclusively.
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
}

// hit is the lookup proper, under mu held either way: the content of key if
// cached, with the hit booked on the entry. The caller books it on the cache.
func (c *resultCache) hit(key scanKey) (cellContent, bool) {
	it, ok := c.entries[key]
	if !ok {
		return cellContent{}, false
	}
	it.touch(c.now(), c.halfLife)
	return it.content, true
}

// now reads the decay clock (0 with decay off).
func (c *resultCache) now() int64 {
	if c.halfLife <= 0 {
		return 0
	}
	return c.tick()
}

// Lookup returns the cached content of (ds, cell) if present. ok
// distinguishes a cached empty cell from a miss. A hit shares the lock; only
// what did not hit takes it exclusively, and looks again (the cell may have
// been inserted between the two).
func (c *resultCache) Lookup(ds object.DatasetID, cell octree.Key) (cellContent, bool) {
	key := scanKey{ds: ds, cell: cell}
	c.mu.RLock()
	content, ok := c.hit(key)
	c.mu.RUnlock()
	if ok {
		c.book(1)
		return content, true
	}
	c.mu.Lock()
	if content, ok = c.hit(key); ok {
		c.hits.Add(1)
	} else {
		c.noteGhostLocked(key)
		c.misses.Add(1)
	}
	c.maybeTuneLocked()
	c.mu.Unlock()
	return content, ok
}

// Peek returns the cached content of (ds, cell) for layout maintenance — a
// refinement's source, a merge copy's — under the shared lock. It books no
// hit, touches no heat and inserts nothing: maintenance reading the cache
// never changes what the cache thinks is hot.
func (c *resultCache) Peek(ds object.DatasetID, cell octree.Key) (cellContent, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if it, ok := c.entries[scanKey{ds: ds, cell: cell}]; ok {
		return it.content, true
	}
	return cellContent{}, false
}

// LookupRun is Lookup for the leading hits of reads, under one shared
// acquisition: it appends to hits the content of every read up to the first
// that does not hit, and returns hits. The read that ended the run is not
// booked — it is the caller's to Lookup, miss and Insert before the next run
// — so a query issues the cache the operations of one Lookup per read, in
// order. The run's hits are booked together once the shared lock is
// released.
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
	c.book(len(hits) - n)
	return hits
}

// AnswerContained probes for a cached region of ds containing ext, the query
// window already extended by the tree's max object half-extent. Because
// cached regions are cell boxes of the uniform k^level grid, the only
// candidate at each level is the cell containing ext's min corner — one map
// lookup per cached level whose cells are as wide as ext, not a scan. Levels
// are probed deepest first: of several regions containing the window the
// smallest answers, the one with the fewest objects to filter (and always the
// same one). The returned content is the full region content and cell the
// key it is cached under (a child directory indexes the content by the key's
// box); the caller filters by the original query box. The probe shares the
// lock like any hit.
func (c *resultCache) AnswerContained(ds object.DatasetID, fanout int, ext geom.Box) (content cellContent, cell octree.Key, ok bool) {
	c.mu.RLock()
	content, cell, ok = c.probe(ds, fanout, ext)
	c.mu.RUnlock()
	if ok {
		c.containmentHits.Add(1)
	}
	return content, cell, ok
}

// probe is AnswerContained under mu, held shared.
func (c *resultCache) probe(ds object.DatasetID, fanout int, ext geom.Box) (cellContent, octree.Key, bool) {
	lv := c.levels[ds]
	if lv == nil {
		return cellContent{}, octree.Key{}, false
	}
	size, span := c.bounds.Size(), ext.Size()
	for mask := lv.mask; mask != 0; {
		level := uint32(bits.Len32(mask) - 1)
		mask &^= 1 << level
		if !wideEnough(size, span, fanout, level) {
			continue
		}
		cell, ok := octree.CellAt(c.bounds, fanout, level, ext.Min)
		if !ok {
			continue
		}
		it, ok := c.entries[scanKey{ds: ds, cell: cell}]
		if !ok || !it.region.Contains(ext) {
			continue
		}
		it.touch(c.now(), c.halfLife)
		return it.content, cell, true
	}
	return cellContent{}, octree.Key{}, false
}

// wideEnough reports whether a cell of the fanout^level grid over a volume of
// the given size is at least span wide on every axis, as a cell containing a
// window of that span must be. The margin, 1e-9 of the volume's side, errs
// toward yes: it is far above the rounding of a cell box's faces, so a level
// it rules out holds no cell containing the window.
func wideEnough(size, span geom.Vec, fanout int, level uint32) bool {
	cells := math.Pow(float64(fanout), float64(level))
	return span.X <= (size.X/cells)+1e-9*size.X &&
		span.Y <= (size.Y/cells)+1e-9*size.Y &&
		span.Z <= (size.Z/cells)+1e-9*size.Z
}

// Insert retains a completed scan of (ds, cell): region is the cell box
// content is the full content of, epoch the layout epoch loaded before the
// read began, part the tree partition at cell the read served, if it knew it
// (nil otherwise), which the entry marks while it is cached. The read is kept only if that epoch is still current: a
// publish advances the epoch before it drops what it changed, so a read that
// raced one — and may hold the cell as it was laid out before — is never
// kept past the drop. Entries larger than the whole budget are not
// admitted; otherwise the coldest entries are evicted until the new one
// fits. Re-inserting a present key replaces its content and keeps its heat —
// the region is evidently hot.
func (c *resultCache) Insert(ds object.DatasetID, cell octree.Key, part *octree.Partition, epoch int64,
	region geom.Box, content cellContent) {
	key := scanKey{ds: ds, cell: cell}
	objs := content.objs
	c.mu.Lock()
	if epoch != c.epoch.Load() {
		c.mu.Unlock()
		return
	}
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
	it := &cachedScan{key: key, region: region, content: content, part: part, posHeat: 1}
	if c.halfLife > 0 {
		it.posScore = newScore(c.tick(), c.halfLife)
	}
	if old, ok := c.entries[key]; ok {
		it.posHeat = old.heat.Load() + 1
		if c.halfLife > 0 {
			it.posScore = bumpScore(math.Float64frombits(old.score.Load()), c.tick(), c.halfLife)
		}
		c.removeLocked(old)
	}
	for c.objects+int64(len(objs)) > c.capacity && len(c.cold) > 0 {
		victim := c.cold[0]
		if victim.reposition() {
			// Hit since it was last positioned: no longer known to be coldest.
			heap.Fix(&c.cold, 0)
			continue
		}
		c.pushGhostLocked(victim.key)
		c.removeLocked(victim)
		c.evictions.Add(1)
		c.evictionsWin++
	}
	c.seq++
	it.seq = c.seq
	it.heat.Store(it.posHeat)
	it.score.Store(math.Float64bits(it.posScore))
	heap.Push(&c.cold, it)
	c.entries[key] = it
	if part != nil {
		part.SetMarked(true)
	}
	lv := c.levels[ds]
	if lv == nil {
		lv = new(levelIndex)
		c.levels[ds] = lv
	}
	lv.add(cell.Level, 1)
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
// and the object budget, and clears its mark. Caller holds mu exclusively.
func (c *resultCache) removeLocked(it *cachedScan) {
	it.unmark()
	delete(c.entries, it.key)
	heap.Remove(&c.cold, it.index)
	c.objects -= int64(len(it.content.objs))
	c.levels[it.key.ds].add(it.key.cell.Level, -1)
}

// DropDataset removes every entry of ds and its level index: ds was refined,
// and its cached cells may now be coarser than its leaves. Counted as an
// invalidation when it removed anything.
func (c *resultCache) DropDataset(ds object.DatasetID) {
	c.mu.Lock()
	kept := c.cold[:0]
	for _, it := range c.cold {
		if it.key.ds != ds {
			it.index = len(kept)
			kept = append(kept, it)
			continue
		}
		it.unmark()
		delete(c.entries, it.key)
		c.objects -= int64(len(it.content.objs))
	}
	dropped := len(kept) < len(c.cold)
	clear(c.cold[len(kept):])
	c.cold = kept
	heap.Init(&c.cold)
	delete(c.levels, ds)
	c.mu.Unlock()
	if dropped {
		c.invalidations.Add(1)
	}
}

// DropKeys removes the entries of keys: a merge published segments with
// child directories for them, and a cached copy may be a partition in file
// order, without the directory. Counted as an invalidation when it removed
// anything.
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

// Invalidate flushes the cache (Odyssey.FlushResultCache). A flush that finds
// the cache empty is not counted.
func (c *resultCache) Invalidate() {
	c.mu.Lock()
	flushed := len(c.entries) > 0
	if c.adaptive {
		// A flush is the tuning point the hit curve was observed for; ghosts
		// from before it would misread the coming compulsory misses as
		// capacity misses, so they flush too. The cadence restarts from it.
		c.tuneLocked()
		c.sinceTune.Store(0)
		c.ghost = make(map[scanKey]struct{})
		c.ghostRing = nil
	}
	if flushed {
		for _, it := range c.cold {
			it.unmark()
		}
		c.entries = make(map[scanKey]*cachedScan)
		c.levels = make(map[object.DatasetID]*levelIndex)
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
	capacity := c.capacity
	ghostHits, grows, shrinks := c.ghostHits, c.grows, c.shrinks
	c.mu.RUnlock()
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
