package core

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"spaceodyssey/internal/geom"
	"spaceodyssey/internal/object"
	"spaceodyssey/internal/octree"
	"spaceodyssey/internal/pagefile"
	"spaceodyssey/internal/rawfile"
	"spaceodyssey/internal/simdisk"
)

// Config assembles the engine parameters (paper defaults throughout).
type Config struct {
	// Octree configures the incremental indexing (rt, ppl).
	Octree octree.Config
	// Merger configures merging (mt, |C| minimum, space budget).
	Merger MergerConfig
	// DisableMerging turns the Merger off — the paper's "Odyssey w/o
	// merging" ablation (Figure 5c).
	DisableMerging bool
	// AsyncMaintenance moves layout maintenance (refinement and merging)
	// off the query path: queries answer immediately from the current
	// layout — the level-0 scan or the best-available tree partitions —
	// and enqueue coalescing maintenance tasks that a background scheduler
	// drains concurrently across datasets. Default off: maintenance runs
	// inline on the query that triggered it, as in the paper.
	AsyncMaintenance bool
	// MaintenanceWorkers bounds the background scheduler's worker pool
	// (<= 0 defaults to 2). Only meaningful with AsyncMaintenance.
	MaintenanceWorkers int
	// ShareScans is ignored, and kept only so that configurations which set
	// it still compile: scan sharing runs exactly when CacheResults is on.
	//
	// Deprecated: set CacheResults.
	ShareScans bool
	// CacheResults turns on the result cache, and with it scan sharing: a
	// query attaches to another query's in-flight read of the same
	// (dataset, cell) — partition or merge segment — within a layout epoch,
	// and completed partition scans and merge-segment reads are retained
	// keyed on (dataset, cell), so later queries of the same cells are
	// answered without device reads. A cached cell stays exact across layout
	// changes; a refinement drops the cells it split and their ancestors,
	// and a merge regroups the cached keys it published with a child
	// directory, which keeps what is cached as fine and as indexed as the
	// layout, and refinements and merge copies read the cells it holds
	// instead of the device (see resultCache).
	// Results are byte-identical to the uncached engine. Default off: every
	// query pays its own I/O, and behavior and I/O accounting are
	// bit-for-bit the original model. (Level-0 builds are single-flight
	// either way.)
	CacheResults bool
	// CacheCapacity bounds the result cache in cached objects (<= 0
	// defaults to DefaultCacheCapacity). Eviction is heat-aware: coldest
	// entries (fewest hits, oldest among equals) leave first.
	CacheCapacity int64
	// HeatHalfLife is ignored, and kept only so that configurations which
	// set it still compile: heat is a plain access count, and the heat
	// ledgers order by it with ties FIFO.
	//
	// Deprecated: leave it unset.
	HeatHalfLife int
	// AdaptiveCache is ignored, and kept only so that configurations which
	// set it still compile: the result cache's budget is CacheCapacity.
	//
	// Deprecated: set CacheCapacity, or leave it at DefaultCacheCapacity.
	AdaptiveCache bool
}

// DefaultConfig returns the paper's configuration: rt=4, ppl=64, mt=2,
// |C| >= 3, unlimited merge space.
func DefaultConfig() Config {
	return Config{
		Octree: octree.DefaultConfig(),
		Merger: MergerConfig{MergeThreshold: 2, MinCombination: 3},
	}
}

// PhaseTimes breaks the engine's simulated time down by activity — the
// adaptive analogue of the paper's indexing/querying split for static
// engines (Figure 4's stacked bars). Phase durations are exact per-query
// charge attributions on every topology: each query's context carries a QoS
// scope the storage layer charges directly (service time plus arrival-gated
// queueing delay), so concurrent queries never bleed into each other's
// buckets and nothing is shadowed by a busier channel. Contexts without a
// scope fall back to device-clock deltas, exact for a serial caller on the
// default single-channel topology.
type PhaseTimes struct {
	// LevelZeroBuild is the in-situ first-touch partitioning of raw files.
	LevelZeroBuild time.Duration
	// Refinement is the read-split-rewrite I/O of the Adaptor.
	Refinement time.Duration
	// TreeReads is time reading partitions from individual dataset files.
	TreeReads time.Duration
	// MergeReads is time reading segments from merge files.
	MergeReads time.Duration
	// MergeWrites is the Merger's copy I/O (reads of originals included).
	MergeWrites time.Duration
}

// Metrics aggregates engine activity for reporting.
type Metrics struct {
	Queries             int
	Refinements         int
	TreesBuilt          int
	PartitionsFromTree  int
	PartitionsFromMerge int
	// PartitionsSkipped counts the leaves read-only walks did not visit:
	// cached cells whose extent missed the query (octree.QueryResult.Skipped),
	// booked as cache hits and counted in neither PartitionsFromTree nor
	// PartitionsFromMerge.
	PartitionsSkipped  int
	MergeFilesCreated  int
	PartitionsMerged   int
	MergeEvictions     int
	SegmentsShared     int
	CurrentMergeThresh int
	RelationCounts     map[Relation]int
	Phases             PhaseTimes
	// ObjectsTested and ObjectsKept are the query filter's input and output,
	// summed over queries: the objects tested against a query window — of
	// tree leaves and merge segments alike — and the
	// matches returned. A merge segment stored with a directory is tested
	// only in the grid cells the window meets.
	ObjectsTested int64
	ObjectsKept   int64
	// PartitionsRepaired and MergeFilesRepaired count the derived data
	// rebuilt after a read that could never succeed (see repair):
	// partitions re-derived from their raw files, and merge files evicted
	// (also counted in MergeEvictions).
	PartitionsRepaired int
	MergeFilesRepaired int
}

// Odyssey is the Space Odyssey engine: adaptive per-dataset octrees plus
// cross-dataset merge files, orchestrated by the query processor in Query.
//
// All methods are safe for concurrent use. The locking discipline splits
// the read path from the mutate path:
//
//   - mu (the layout lock) is held shared for the whole read side of a
//     query — merge-file routing, the per-dataset tree walks, merge-segment
//     reads — and by a merge step staged under shared locks (a maintainer
//     attached and Merger.CanStageMerges), which publishes beside the
//     readers as the next version of the merge file (Merger.publish). It is
//     held exclusively to evict merge files (the space budget, a repair),
//     by AddRaw, and by every other merge step: the paper's inline one,
//     segment sharing and CoarsestCover.
//   - treeMu[ds] guards one dataset's octree. Queries take it shared for a
//     read-only walk, exclusive for the level-0 build and — with no
//     maintainer attached, when octree.Tree.NeedsWrite finds a leaf to
//     refine — for a refining walk, so refinement excludes only readers of
//     the affected dataset, never the whole engine. The merge step's copy
//     stage takes every member's lock, shared or exclusive like mu.
//   - statsMu guards combos, each combination's record (combo) — its query
//     count, partition set and futility mark — and the metric counters;
//     critical sections are a few map operations. A record's recency tick is
//     under Merger.accMu, and its queued merge task and active flag under
//     maintainer.mu.
//
// Lock order is always mu -> treeMu[ds] -> statsMu; treeMu locks are never
// nested during queries and are taken in sorted dataset order by the merge
// step. The merger's directory and accounting locks are leaves, and so is
// the maintainer's.
type Odyssey struct {
	dev    simdisk.Storage
	cfg    Config
	bounds geom.Box

	mu     sync.RWMutex // layout lock: trees map membership + merger layout
	trees  map[object.DatasetID]*octree.Tree
	treeMu map[object.DatasetID]*sync.RWMutex
	merger *Merger

	// mergeFlight single-flights the merge step per combination: concurrent
	// triggers for one ComboKey — synchronous queries racing past the
	// threshold, or the scheduler's task — attach to the in-flight step
	// instead of queueing repeated exclusive merges of the same candidates.
	// It also discharges Merger.stage's single-flight precondition
	// structurally rather than by scheduler convention. buildFlight does the
	// same for level-0 first-touch builds, per dataset, carrying the build's
	// simulated time; sharedBuilds counts the queries that waited on one
	// (see ensureBuilt). cellFlight does it for cell reads when
	// Config.CacheResults is on; attachedScans counts the reads it answered
	// (see readCell).
	mergeFlight   flightGroup[ComboKey, struct{}]
	buildFlight   flightGroup[object.DatasetID, time.Duration]
	cellFlight    flightGroup[flightKey, cellContent]
	sharedBuilds  atomic.Int64
	attachedScans atomic.Int64

	// maint is the background maintenance scheduler; nil unless
	// Config.AsyncMaintenance is set. See maintenance.go.
	maint *maintainer

	// rcache is the result cache; nil unless
	// Config.CacheResults is set. See resultcache.go.
	rcache *resultCache

	// layoutEpoch counts physical-layout changes: level-0 builds,
	// refinements, merge appends and merge-file evictions. The
	// steady-state fast path uses it to recognize that a previously futile
	// merge attempt cannot succeed now either (see futileMark).
	layoutEpoch atomic.Int64

	// relations counts merge-file routings by Relation.
	relations [RelSubset + 1]atomic.Int64

	statsMu        sync.Mutex          // guards everything below
	combos         map[ComboKey]*combo // every combination queried, interned by route
	queries        int
	partsFromTree  int
	partsFromMerge int
	partsSkipped   int
	phases         PhaseTimes
	objectsTested  int64
	objectsKept    int64
	partsRepaired  int
	mergesRepaired int
}

// New creates the engine over the given raw files. Nothing is indexed until
// queries arrive.
func New(dev simdisk.Storage, raws []*rawfile.Raw, bounds geom.Box, cfg Config) (*Odyssey, error) {
	o := &Odyssey{
		dev:    dev,
		cfg:    cfg,
		bounds: bounds,
		trees:  make(map[object.DatasetID]*octree.Tree, len(raws)),
		treeMu: make(map[object.DatasetID]*sync.RWMutex, len(raws)),
		combos: make(map[ComboKey]*combo),
		merger: NewMerger(dev, cfg.Merger),
	}
	if cfg.CacheResults {
		o.rcache = newResultCache(bounds, cfg.CacheCapacity, &o.layoutEpoch)
	}
	for _, raw := range raws {
		if err := o.AddRaw(raw); err != nil {
			return nil, err
		}
	}
	if cfg.AsyncMaintenance {
		o.maint = newMaintainer(o, cfg.MaintenanceWorkers)
	}
	return o, nil
}

// AddRaw registers one more raw dataset with the engine. The dataset is
// indexed lazily like any other; adding is cheap and can happen at any
// point of the exploration session, including concurrently with queries.
func (o *Odyssey) AddRaw(raw *rawfile.Raw) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	ds := raw.Dataset()
	if _, dup := o.trees[ds]; dup {
		return fmt.Errorf("core: duplicate dataset %d", ds)
	}
	tree, err := octree.New(o.dev, raw, o.bounds, o.cfg.Octree)
	if err != nil {
		return err
	}
	if o.rcache != nil {
		// The result cache and scan sharing ride the tree's partition reads;
		// without them the tree keeps its pooled direct read. A partition is
		// read in file order; whatever answers its key, the walk filters the
		// objects whole.
		tree.ShareReader = func(ctx context.Context, p *octree.Partition, read func(context.Context) ([]object.Object, error)) ([]object.Object, error) {
			c, err := o.readCell(ctx, ds, p.Key(), p, func(ctx context.Context) (cellContent, error) {
				objs, err := read(ctx)
				return cellContent{objs: objs}, err
			})
			return c.objs, err
		}
	}
	if o.rcache != nil {
		// A refinement takes its leaf's objects from the entry its partition
		// points at, where bucketing them by the leaf's k³ children writes
		// what bucketing the device's file order would: content with no
		// directory is in that order, and a merge segment grouped on the
		// same k³ cells of the same box is that bucketing already (a stable
		// sort leaves it as it is). A (2k)³ directory orders each child by
		// its finer cells, and goes to the device.
		k := tree.FanoutPerDim()
		tree.RefineSource = func(p *octree.Partition) ([]object.Object, bool) {
			e := p.Cached()
			if e == nil {
				return nil, false
			}
			ok := e.Children == nil || len(e.Children) == k*k*k+1 && EntryBox(o.bounds, p.Key(), k) == p.Box()
			return e.Objs, ok
		}
	}
	o.trees[ds] = tree
	o.treeMu[ds] = new(sync.RWMutex)
	return nil
}

// Build implements engine.Engine. Space Odyssey never indexes up front;
// indexing happens incrementally during Query.
func (o *Odyssey) Build() error { return nil }

// Tree returns the incremental index of one dataset (nil if unknown). The
// tree itself is not synchronized; concurrent callers must not mutate it
// while queries run (use TreeInfo for a consistent snapshot).
func (o *Odyssey) Tree(ds object.DatasetID) *octree.Tree {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return o.trees[ds]
}

// TreeInfo is a consistent snapshot of one dataset's indexing state.
type TreeInfo struct {
	Built       bool
	Leaves      int
	MaxExtent   geom.Vec
	Refinements int
}

// TreeInfo snapshots a dataset's tree under its read lock; ok is false for
// unknown datasets.
func (o *Odyssey) TreeInfo(ds object.DatasetID) (info TreeInfo, ok bool) {
	o.mu.RLock()
	tree, lk := o.trees[ds], o.treeMu[ds]
	if tree == nil {
		o.mu.RUnlock()
		return TreeInfo{}, false
	}
	lk.RLock()
	info = TreeInfo{
		Built:       tree.Built(),
		Leaves:      tree.NumLeaves(),
		MaxExtent:   tree.MaxExtent(),
		Refinements: tree.Refinements,
	}
	lk.RUnlock()
	o.mu.RUnlock()
	return info, true
}

// Merger exposes the merger for inspection. The merger is synchronized only
// through the engine's locks; single-threaded inspection only.
func (o *Odyssey) Merger() *Merger { return o.merger }

// MergeFileCount returns how many merge files currently exist.
func (o *Odyssey) MergeFileCount() int {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return o.merger.NumFiles()
}

// MergeSpacePages returns the disk space merge files currently occupy.
func (o *Odyssey) MergeSpacePages() int64 {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return o.merger.TotalPages()
}

// Metrics returns a snapshot of the engine counters.
func (o *Odyssey) Metrics() Metrics {
	o.mu.RLock()
	refinements := 0
	built := 0
	for ds, t := range o.trees {
		lk := o.treeMu[ds]
		lk.RLock()
		refinements += t.Refinements
		if t.Built() {
			built++
		}
		lk.RUnlock()
	}
	o.mu.RUnlock()
	m := Metrics{
		Refinements:        refinements,
		TreesBuilt:         built,
		CurrentMergeThresh: o.merger.Threshold(),
	}
	m.MergeFilesCreated, m.PartitionsMerged, m.MergeEvictions, m.SegmentsShared = o.merger.counters()

	o.statsMu.Lock()
	m.Queries = o.queries
	m.PartitionsFromTree = o.partsFromTree
	m.PartitionsFromMerge = o.partsFromMerge
	m.PartitionsSkipped = o.partsSkipped
	m.Phases = o.phases
	m.ObjectsTested, m.ObjectsKept = o.objectsTested, o.objectsKept
	m.PartitionsRepaired, m.MergeFilesRepaired = o.partsRepaired, o.mergesRepaired
	o.statsMu.Unlock()
	m.RelationCounts = make(map[Relation]int)
	for r := range o.relations {
		if n := o.relations[r].Load(); n > 0 {
			m.RelationCounts[Relation(r)] = int(n)
		}
	}
	return m
}

// mergeRead names one merge-file segment a query reads: an entry cell and one
// member dataset's copy of it, with the file position (the segment's
// run.Start) readMerged orders the reads by, and the served leaf whose key is
// the entry (nil when the entry is coarser), which the cache points at its
// entry.
type mergeRead struct {
	entry octree.Key
	ds    object.DatasetID
	start int64
	leaf  *octree.Partition
}

// compareMergeReads orders segment reads by file position. Shared segments
// live in other files, so run starts can tie; the (dataset, cell) tie-break
// keeps the read order — and the seeks it charges — a function of the
// segments alone.
func compareMergeReads(a, b mergeRead) int {
	if c := cmp.Compare(a.start, b.start); c != 0 {
		return c
	}
	return cmp.Or(cmp.Compare(a.ds, b.ds), compareKeys(a.entry, b.entry))
}

// dsWants is one dataset's refinement demand from a read-only walk.
type dsWants struct {
	ds   object.DatasetID
	keys []octree.Key
}

// queryScratch is the garbage of one query that QueryCtx recycles: the
// slices of a queryAcc that die with it. Nothing that outlives the query may
// alias them (a combination's record copies the members and the keys it
// keeps).
type queryScratch struct {
	ordered []object.DatasetID  // the requested datasets, sorted, duplicates dropped
	exts    []geom.Box          // per dataset of ordered, the window its walk trusts (see queryAcc.ext)
	leaves  []*octree.Partition // the current walk's leaves hit (QueryResult.Touched)
	touched []octree.Key        // every leaf hit that the combination's own merge file does not serve, for its partition set
	own     []*octree.Partition // the current walk's leaves the combination's own merge file serves, in walk order
	split   []octree.Key        // the leaves the current refining walk split (QueryResult.Split)
	served  []mergeRead         // segments readMerged owes, one per served leaf until it dedups them
	cached  []servedHit         // served leaves at their entry's own key that the cache held, in walk order
	hits    []cellContent       // readMerged's current run of cache hits, filtered outside the cache lock
}

// servedHit is a leaf the routed merge file serves at the leaf's own key,
// answered by the cache entry its partition pointed at when the walk served
// it (queryAcc.serve).
type servedHit struct {
	ds    object.DatasetID
	cell  octree.Key
	entry *octree.CacheEntry
}

var queryScratchPool = sync.Pool{New: func() any { return new(queryScratch) }}

// maxPooledQueryKeys is the pool's retention bound, per slice: a query that
// touched more cells leaves its scratch to the collector.
const maxPooledQueryKeys = 1 << 12

// release empties the slices and returns the scratch to the pool.
func (qs *queryScratch) release() {
	if max(cap(qs.ordered), cap(qs.leaves), cap(qs.touched), cap(qs.own), cap(qs.split), cap(qs.served), cap(qs.cached), cap(qs.hits)) > maxPooledQueryKeys {
		return
	}
	// The pool must keep no tree partition or evicted cell alive.
	clear(qs.leaves[:cap(qs.leaves)])
	clear(qs.own[:cap(qs.own)])
	clear(qs.served[:cap(qs.served)])
	clear(qs.cached[:cap(qs.cached)])
	clear(qs.hits[:cap(qs.hits)])
	qs.ordered, qs.exts, qs.leaves, qs.touched = qs.ordered[:0], qs.exts[:0], qs.leaves[:0], qs.touched[:0]
	qs.own, qs.split, qs.served, qs.cached, qs.hits = qs.own[:0], qs.split[:0], qs.served[:0], qs.cached[:0], qs.hits[:0]
	queryScratchPool.Put(qs)
}

// queryAcc is one query's state as it moves through the stages of QueryCtx.
// It lives on QueryCtx's stack: the stages take it by pointer and none
// retains it.
type queryAcc struct {
	*queryScratch // pooled: QueryCtx takes it and releases it
	q             geom.Box
	fanout        int // per-dimension fanout every tree of the engine shares

	// Set by route.
	combo *combo     // the record of ordered
	count int        // times the combination has been queried, this one included
	mf    *MergeFile // the merge file serving the combination (nil: none)
	// With the result cache on: the query's scope, and the device operations
	// charged to it before the read side (see record).
	scope *simdisk.OpScope
	ops   int64

	// Accumulated by the read stages.
	out          []object.Object
	tested       int // objects the read stages' filters tested; len(out) is what they kept
	servedLeaves int // leaves among touched that a segment of another combination's merge file serves
	skipped      int // leaves among touched the walks skipped (octree.QueryResult.Skipped)
	wants        []dsWants
	phases       PhaseTimes

	// Snapshotted by record for the merge-due test, and its verdict.
	epoch    int64
	nCand    int
	mark     futileMark
	mergeDue bool

	// repaired is set once the query repaired derived data and read again:
	// its walks then only read, so no region is refined twice by one query.
	repaired bool
}

// restart empties what the read stages accumulated, for a query that reads
// again after a repair, and re-routes it: the repair may have evicted the
// routed merge file and reset the combination's count. The phase charges
// stay — the query paid them.
func (o *Odyssey) restart(acc *queryAcc) {
	acc.exts, acc.leaves, acc.touched, acc.own, acc.served, acc.cached = acc.exts[:0], acc.leaves[:0], acc.touched[:0], acc.own[:0], acc.served[:0], acc.cached[:0]
	acc.out, acc.tested, acc.servedLeaves, acc.skipped, acc.wants = acc.out[:0], 0, 0, 0, acc.wants[:0]
	acc.repaired = true
	if !o.cfg.DisableMerging {
		acc.mf, _ = o.merger.route(acc.combo.key, acc.combo.members)
	}
	o.statsMu.Lock()
	acc.count = acc.combo.count
	o.statsMu.Unlock()
}

// serve books leaf as served by the routed merge file's segment seg for
// (ds, entry); several leaves may share a segment, which is read once. A leaf
// at the entry's own key whose partition points at a cache entry is the
// segment's cell, cached: it is booked as that hit (cached), for readMerged
// to filter first, and never joins the reads it sorts. Only a leaf at the
// entry's key is: a cached leaf under a coarser entry is read with the whole
// segment, which holds it. A leaf the combination's own file serves is set
// aside, to be left out of touched: a merge step skips every candidate its
// own file covers (stagedMerge.covering), so recording it would only grow the
// combination's partition set.
func (a *queryAcc) serve(ds object.DatasetID, entry octree.Key, seg segment, leaf *octree.Partition) {
	r := mergeRead{entry: entry, ds: ds, start: seg.run.Start}
	if leaf.Key() == entry {
		r.leaf = leaf
	}
	if e := leaf.Cached(); e != nil && r.leaf != nil {
		a.cached = append(a.cached, servedHit{ds: ds, cell: entry, entry: e})
	} else {
		a.served = append(a.served, r)
	}
	if a.mf.combo == a.combo {
		a.own = append(a.own, leaf)
	} else {
		a.servedLeaves++
	}
}

// ext returns the window readDataset recorded for ds, a requested dataset:
// the query extended by the tree's max object half-extent, which holds the
// center of every object of ds that can intersect the query (the window the
// tree walk trusts).
func (a *queryAcc) ext(ds object.DatasetID) geom.Box {
	i, _ := slices.BinarySearch(a.ordered, ds)
	return a.exts[i]
}

// keep adds the objects that intersect the query to the result.
func (a *queryAcc) keep(objs []object.Object) {
	a.tested += len(objs)
	a.out = object.AppendIntersecting(a.out, objs, a.q)
}

// keepCell adds the objects of one cell that intersect the query to the
// result. Content in file order is filtered whole. Content with a directory
// is filtered only in the grid cells ext meets: box is the cell's key box,
// the one its objects were grouped on (groupByChildren), on the grid the
// directory's length names (k³+1 bounds: the k³ children; otherwise the 2k
// grid of a large segment), and the range on each axis is from ext.Min's
// cell to ext.Max's under the same geom.CellGrid arithmetic — which is
// monotone, so a center inside ext lies in a cell of the range, clamped edge
// cells included. Each (z, y) row of the range is one contiguous run of
// objects and one filter call.
func (a *queryAcc) keepCell(c cellContent, box, ext geom.Box) {
	if c.children == nil {
		a.keep(c.objs)
		return
	}
	k := a.fanout
	if len(c.children) != k*k*k+1 {
		k *= 2
	}
	g := box.Grid(k)
	lx, ly, lz := g.Cell(ext.Min)
	hx, hy, hz := g.Cell(ext.Max)
	for z := lz; z <= hz; z++ {
		for y := ly; y <= hy; y++ {
			row := (z*k + y) * k
			a.keep(c.objs[c.children[row+lx]:c.children[row+hx+1]])
		}
	}
}

// Query implements engine.Engine: it executes the paper's full pipeline —
// statistics, merge-file routing (exact / superset / subset / none),
// incremental indexing with per-query refinement, merge-file reads, and the
// post-query merge step. Queries may run concurrently; see the type comment
// for the locking discipline.
func (o *Odyssey) Query(q geom.Box, datasets []object.DatasetID) ([]object.Object, error) {
	return o.QueryCtx(context.Background(), q, datasets)
}

// QueryCtx is Query with cancellation: five stages over one accumulator —
// route, readDataset per dataset, readMerged, record, maintain — the first
// four under the shared layout lock. A read of a tree partition or merge
// file that can never succeed is repaired off the lock, and the query reads
// again (see repair).
//
// The context is observed on the read side only — between and inside the
// per-dataset tree walks and the merge-segment reads, down to page-boundary
// granularity in simdisk — and a canceled query returns a wrapped
// simdisk.ErrCanceled with nil objects, never a partial result. Layout
// mutations are never interrupted mid-way: a refinement that already started
// completes, and the post-query merge step is skipped entirely (not aborted)
// when the context has expired — merging is housekeeping for future queries,
// so a caller that walked away should not pay for it. A query whose context
// expires only after the read side finished still returns its full, correct
// result.
func (o *Odyssey) QueryCtx(ctx context.Context, q geom.Box, datasets []object.DatasetID) ([]object.Object, error) {
	if err := simdisk.CheckCtx(ctx); err != nil {
		return nil, err
	}
	// Matches accumulate in pooled scratch; the caller gets one copy of
	// exactly the result's size.
	scratch := pagefile.GetObjSlice()
	acc := queryAcc{queryScratch: queryScratchPool.Get().(*queryScratch), q: q, out: *scratch}
	o.mu.RLock()
	ctx, err := o.route(ctx, &acc, datasets)
	var done []repairUnit
	for err == nil {
		if err = o.read(ctx, &acc); err == nil {
			o.record(ctx, &acc)
			break
		}
		o.mu.RUnlock()
		done, err = o.repair(ctx, err, done)
		o.mu.RLock()
		if err == nil {
			o.restart(&acc)
		}
	}
	o.mu.RUnlock()
	if err == nil {
		err = o.maintain(ctx, &acc)
	}
	var out []object.Object
	if err == nil && len(acc.out) > 0 {
		out = slices.Clone(acc.out)
	}
	*scratch = acc.out
	pagefile.PutObjSlice(scratch)
	acc.release()
	return out, err
}

// route is stage one: it canonicalises the requested datasets (sorted,
// duplicates dropped — a dataset named twice is still one member of the
// combination and is read once), fetches the combination's record once for
// every later stage — interning it on the combination's first query — ticks
// the heat clock and the record's query count, and asks the merger which
// merge file, if any, serves the combination (§3.2.3). The key is rendered
// on the stack: only a new record allocates it.
// With the result cache on it returns a context carrying an OpScope — the
// caller's, or a fresh one when it brought none — and notes the device
// operations charged to it so far: a query that adds none by record is
// counted as served with zero device reads.
func (o *Odyssey) route(ctx context.Context, acc *queryAcc, datasets []object.DatasetID) (context.Context, error) {
	acc.ordered = append(acc.ordered, datasets...)
	slices.Sort(acc.ordered)
	acc.ordered = slices.Compact(acc.ordered)
	for _, ds := range acc.ordered {
		if o.trees[ds] == nil {
			return ctx, fmt.Errorf("core: unknown dataset %d", ds)
		}
	}
	if len(acc.ordered) > 0 {
		acc.fanout = o.trees[acc.ordered[0]].FanoutPerDim()
	}
	var buf [64]byte
	key := appendKey(buf[:0], acc.ordered)

	o.statsMu.Lock()
	c := o.combos[ComboKey(key)]
	if c == nil {
		c = &combo{key: ComboKey(key), members: slices.Clone(acc.ordered)}
		o.combos[c.key] = c
	}
	o.queries++
	c.count++
	acc.combo, acc.count = c, c.count
	o.statsMu.Unlock()

	rel := RelNone
	if !o.cfg.DisableMerging {
		acc.mf, rel = o.merger.route(c.key, c.members)
	}
	o.relations[rel].Add(1)

	if o.rcache != nil {
		if acc.scope = simdisk.ScopeFrom(ctx); acc.scope == nil {
			ctx, acc.scope = simdisk.WithOpScope(ctx, simdisk.PriForeground)
		}
		acc.ops = acc.scope.Ops()
	}
	return ctx, nil
}

// read runs the read stages: readDataset per dataset, then readMerged.
func (o *Odyssey) read(ctx context.Context, acc *queryAcc) error {
	for _, ds := range acc.ordered {
		if err := o.readDataset(ctx, acc, ds); err != nil {
			return err
		}
	}
	return o.readMerged(ctx, acc)
}

// readDataset is stage two, run once per dataset: make sure level 0 exists,
// then walk the tree.
// Leaves the routed merge file covers are left to readMerged (and, per
// §3.2.2, not refined). With a maintainer attached the walk is read-only
// under the shared tree lock and reports the leaves that want refining; with
// none it refines them on the spot under the exclusive lock — so refinement
// excludes only readers of this dataset, never the whole engine.
func (o *Odyssey) readDataset(ctx context.Context, acc *queryAcc, ds object.DatasetID) error {
	tree, lk := o.trees[ds], o.treeMu[ds]
	built, err := o.ensureBuilt(ctx, ds, tree, lk)
	if err != nil {
		return fmt.Errorf("core: dataset %d: %w", ds, err)
	}
	acc.phases.LevelZeroBuild += built

	lk.RLock()
	acc.exts = append(acc.exts, acc.q.Expand(tree.MaxExtent()))
	// covered is the side-effect-free twin of serve, so leaves served from
	// the merge file do not force the exclusive path.
	var serve, covered func(*octree.Partition) bool
	if mf := acc.mf; mf != nil && mf.memberOf[ds] {
		covered = func(p *octree.Partition) bool { return mf.covers(p.Key(), acc.fanout) }
		serve = func(p *octree.Partition) bool {
			entry, seg, ok := mf.covering(p.Key(), ds, acc.fanout)
			if ok {
				acc.serve(ds, entry, seg, p)
			}
			return ok
		}
	}
	var res octree.QueryResult
	if o.maint != nil || acc.repaired || !tree.NeedsWrite(acc.q, covered) {
		res, err = tree.QueryIntoCtx(ctx, acc.out, acc.leaves[:0], nil, acc.q, serve, covered, false)
		lk.RUnlock()
		if res.Skipped > 0 {
			// Cached: the hits the skipped cells would have been.
			o.rcache.hits.Add(int64(res.Skipped))
			acc.skipped += res.Skipped
		}
	} else {
		lk.RUnlock()
		lk.Lock()
		res, err = tree.QueryIntoCtx(ctx, acc.out, acc.leaves[:0], acc.split[:0], acc.q, serve, covered, true)
		acc.split = res.Split
		if len(res.Split) > 0 {
			// Refinements that completed before an abort still publish.
			o.publishRefined(ds, tree.FanoutPerDim(), res.Split)
		}
		lk.Unlock()
	}
	acc.out = res.Objects // the walk appended this dataset's matches
	acc.leaves = res.Touched
	acc.tested += res.Tested
	if err != nil {
		return fmt.Errorf("core: dataset %d: %w", ds, err)
	}
	if len(res.WantRefine) > 0 {
		acc.wants = append(acc.wants, dsWants{ds: ds, keys: res.WantRefine})
	}
	acc.phases.Refinement += res.RefineTime
	acc.phases.TreeReads += res.ReadTime
	// The walk reports the leaves it served in the order it served them.
	own := acc.own
	for _, p := range res.Touched {
		if len(own) > 0 && p == own[0] {
			own = own[1:]
			continue
		}
		acc.touched = append(acc.touched, p.Key())
	}
	acc.own = acc.own[:0]
	return nil
}

// ensureBuilt is the one level-0 build path: the first query to find a
// dataset unbuilt scans its raw file under the tree's exclusive lock, and
// every query arriving meanwhile waits on that flight — off the tree lock,
// giving up when its own context does — then proceeds down its ordinary
// shared-lock read path. A later arrival finds the tree built whether it
// waited on the flight or would have waited on the lock, so single-flight
// changes no result and no charge. Returns the simulated build time charged
// to this caller (zero for waiters).
func (o *Odyssey) ensureBuilt(ctx context.Context, ds object.DatasetID, tree *octree.Tree, lk *sync.RWMutex) (time.Duration, error) {
	for !tree.Built() {
		dt, attached, err := o.buildFlight.Do(ctx, ds, func() (time.Duration, error) {
			lk.Lock()
			defer lk.Unlock()
			if tree.Built() {
				return 0, nil
			}
			clock := simdisk.PhaseClock(ctx, o.dev)
			t0 := clock.Now()
			err := tree.EnsureBuiltCtx(ctx)
			if err == nil {
				o.bumpLayoutEpoch()
			}
			return clock.Now() - t0, err
		})
		if !attached {
			return dt, err
		}
		o.sharedBuilds.Add(1)
		// The leader's outcome is not ours — its build may have died with
		// its own context. Re-check, and maybe lead.
		if err := simdisk.CheckCtx(ctx); err != nil {
			return 0, err
		}
	}
	return 0, nil
}

// keepContent filters one cell of ds into the result. The cell's key box and
// the dataset's window, which a child directory is read through, are worked
// out only for content that has one: the cached query's cells are one page.
func (o *Odyssey) keepContent(acc *queryAcc, ds object.DatasetID, cell octree.Key, c cellContent) {
	if c.children == nil {
		acc.keep(c.objs)
		return
	}
	acc.keepCell(c, EntryBox(o.bounds, cell, acc.fanout), acc.ext(ds))
}

// readMerged is stage three: it reads the merge-file segments the walks left
// to it — each once, however many leaves it serves — ordered by file position
// so the device sees a (mostly) sequential pass over the merge file. Segments
// are cells like partitions: a segment is the full per-dataset content of its
// entry cell, and merged cells are frozen coarse (merged partitions are never
// refined, §3.2.2) — which is why a segment of more than one page is stored
// grouped on a grid over its entry cell, so that it is filtered only in the
// grid cells the dataset's extended window meets (keepCell). With the result
// cache on, every run of consecutive hits is answered under one shared
// acquisition of its lock; the read that ends a run goes down readCell like
// any cell — looked up, missed, read, inserted — before the next run starts.
// The segments the walks found cached through their leaves (queryAcc.serve)
// are filtered first, in walk order, and booked as hits: they join neither
// the sort nor a run. Hit or read, a segment is filtered through the
// directory its content carries: a key's cached or in-flight content may be
// the tree partition, in file order, read by a query of another combination.
func (o *Odyssey) readMerged(ctx context.Context, acc *queryAcc) error {
	if len(acc.cached) > 0 {
		for _, h := range acc.cached {
			o.keepContent(acc, h.ds, h.cell, hitEntry(h.entry))
		}
		o.rcache.hits.Add(int64(len(acc.cached)))
	}
	if len(acc.served) == 0 {
		return nil
	}
	slices.SortFunc(acc.served, compareMergeReads)
	acc.served = slices.Compact(acc.served)
	// With the result cache on, a segment read may outlive its query —
	// retained by the cache, or handed to the queries attached to it — and is
	// a fresh slice of the segment's exact size (a nil destination); one
	// nobody else can see decodes into pooled scratch, filtered before the
	// next segment reuses it.
	var scratch *[]object.Object
	if o.rcache == nil {
		scratch = pagefile.GetObjSlice()
		defer pagefile.PutObjSlice(scratch)
	}
	clock := simdisk.PhaseClock(ctx, o.dev)
	t0 := clock.Now()
	for reads := acc.served; ; reads = reads[1:] {
		if o.rcache != nil {
			acc.hits = o.rcache.LookupRun(acc.hits[:0], reads)
			for i, c := range acc.hits {
				o.keepContent(acc, reads[i].ds, reads[i].entry, c)
			}
			reads = reads[len(acc.hits):]
		}
		if len(reads) == 0 {
			break
		}
		c, err := o.readSegment(ctx, acc, reads[0], scratch)
		if err != nil {
			return err
		}
		o.keepContent(acc, reads[0].ds, reads[0].entry, c)
	}
	acc.phases.MergeReads += clock.Now() - t0
	return nil
}

// readSegment reads one segment of the routed merge file as the cell it is;
// scratch is the pooled destination of a read nobody else can see, nil when
// the read may be retained or shared.
func (o *Odyssey) readSegment(ctx context.Context, acc *queryAcc, r mergeRead, scratch *[]object.Object) (cellContent, error) {
	return o.readCell(ctx, r.ds, r.entry, r.leaf, func(ctx context.Context) (cellContent, error) {
		var dst []object.Object
		if scratch != nil {
			dst = (*scratch)[:0]
		}
		c, err := o.merger.ReadSegmentCtx(ctx, dst, acc.mf, r.entry, r.ds)
		if scratch != nil && err == nil {
			*scratch = c.objs
		}
		return c, err
	})
}

// record is stage four, the query's one statsMu section on the steady-state
// path: it books the phase charges and partition counts, adds the touched
// leaves its own merge file does not serve to the combination's partition
// set and snapshots what the merge-due test needs, then advances the
// merger's adaptation clock and — while the layout lock the coverage scan
// needs is still held — decides whether a merge step is due. The read side
// is complete here; a query scope charged no device operation since route
// means every partition and segment came from the result cache (or another
// query's in-flight scan) — the query cost zero device reads.
func (o *Odyssey) record(ctx context.Context, acc *queryAcc) {
	acc.epoch = o.layoutEpoch.Load()
	o.statsMu.Lock()
	o.phases.LevelZeroBuild += acc.phases.LevelZeroBuild
	o.phases.Refinement += acc.phases.Refinement
	o.phases.TreeReads += acc.phases.TreeReads
	o.phases.MergeReads += acc.phases.MergeReads
	o.objectsTested += int64(acc.tested)
	o.objectsKept += int64(len(acc.out))
	o.partsFromMerge += len(acc.served) + len(acc.cached)
	o.partsFromTree += len(acc.touched) - acc.servedLeaves - acc.skipped
	o.partsSkipped += acc.skipped
	acc.combo.addParts(acc.touched)
	acc.nCand = len(acc.combo.parts)
	acc.mark = acc.combo.futile
	o.statsMu.Unlock()
	if acc.scope != nil && acc.scope.Ops() == acc.ops {
		o.rcache.zeroReads.Add(1)
	}
	o.merger.OnQuery()
	acc.mergeDue = o.mergeDue(ctx, acc)
}

// maintain is stage five, after the layout lock is released: what the query
// learned becomes layout maintenance (§3.2.1). With a maintainer attached
// the query returns now and refinement and the merge step become coalescing
// background tasks — refinements first, so the scheduler's merge gate
// (members must be refinement-quiescent) orders this query's merge after
// them. With none, a due merge step runs inline, single-flight per
// combination: queries that crossed the threshold together attach to the
// leader's step instead of queueing identical exclusive steps behind it. The
// step runs under a non-cancelable context (layout mutations are never
// interrupted mid-way) that keeps the query's QoS scope, so the merge I/O is
// charged to the query that triggered it.
func (o *Odyssey) maintain(ctx context.Context, acc *queryAcc) error {
	if o.maint != nil {
		qVol := acc.q.Volume()
		for _, w := range acc.wants {
			o.maint.EnqueueRefine(w.ds, w.keys, acc.q, qVol, acc.combo)
		}
		if acc.mergeDue {
			o.maint.EnqueueMerge(acc.combo)
		}
		return nil
	}
	if !acc.mergeDue {
		return nil
	}
	return o.mergeOnce(simdisk.Detach(ctx), acc.combo)
}

// mergeOnce runs the merge step for one combination, single-flight with
// every other trigger of it. A partition the step's copies cannot read is
// repaired, and the step runs again: what it staged before the fault is
// published, so the rerun copies only the rest.
func (o *Odyssey) mergeOnce(ctx context.Context, c *combo) error {
	_, _, err := o.mergeFlight.Do(ctx, c.key, func() (struct{}, error) {
		var done []repairUnit
		for {
			err := o.mergeStep(ctx, c)
			if err == nil {
				return struct{}{}, nil
			}
			if done, err = o.repair(ctx, err, done); err != nil {
				return struct{}{}, err
			}
		}
	})
	return err
}

// mergeDue reports whether the combination crossed mt and a merge step could
// do work; callers hold the shared layout lock. A context that expired after the read side completed skips the
// step instead of aborting inside it: the result is already correct and
// complete, and layout reorganization must never be left half-done.
//
// Steady-state fast path: the step is skipped when it would provably be a
// no-op — either the last attempt was futile and nothing it depends on
// (candidate set, physical layout) has changed since, or every accumulated
// partition is already covered by the combination's merge file. Without
// this, every post-threshold query would barrier the whole engine on the
// layout lock.
func (o *Odyssey) mergeDue(ctx context.Context, acc *queryAcc) bool {
	if o.cfg.DisableMerging || acc.count < o.merger.Threshold() || simdisk.CheckCtx(ctx) != nil {
		return false
	}
	if acc.nCand == 0 || acc.mark.set && acc.nCand <= acc.mark.candidates && acc.epoch == acc.mark.epoch {
		return false
	}
	o.statsMu.Lock()
	candidates := acc.combo.partitionsUnsorted()
	o.statsMu.Unlock()
	due := o.merger.NeedsMerge(acc.combo, candidates, acc.fanout)
	if !due {
		// Everything covered: memoize so converged steady-state traffic
		// skips even this coverage scan next time.
		o.statsMu.Lock()
		acc.combo.futile = futileMark{set: true, candidates: acc.nCand, epoch: acc.epoch}
		o.statsMu.Unlock()
	}
	return due
}

// mergeStep is the one merge step: merge (or extend the merge file with)
// every qualifying partition the combination accumulated, enforce the space
// budget, and maintain the layout epoch, the futility mark and the evicted
// combinations' records. Callers hold the combination's mergeFlight slot
// and pass a non-cancelable context whose QoS scope the copy I/O is charged
// to.
//
// When a maintainer is attached and the merge configuration allows it
// (CanStageMerges), the whole step holds the layout lock and every member's
// tree lock shared, so queries keep flowing: the copies are published
// beside the readers as the next version of the combination's merge file
// (Merger.publish), and the layout lock is taken exclusively only when the
// space budget must evict (publishShared). Otherwise — the paper's inline
// step, segment sharing, CoarsestCover — the step holds them exclusively
// throughout. Either way a racing query observes none or all of the step's
// entries.
func (o *Odyssey) mergeStep(ctx context.Context, c *combo) error {
	shared := o.maint != nil && o.merger.CanStageMerges()
	lock, unlock := (*sync.RWMutex).Lock, (*sync.RWMutex).Unlock
	if shared {
		lock, unlock = (*sync.RWMutex).RLock, (*sync.RWMutex).RUnlock
	}
	clock := simdisk.PhaseClock(ctx, o.dev)
	epochBefore := o.layoutEpoch.Load()

	lock(&o.mu)
	for _, ds := range c.members {
		lock(o.treeMu[ds])
	}
	o.statsMu.Lock()
	candidates := c.partitions()
	o.statsMu.Unlock()
	t0 := clock.Now()
	st, stageErr := o.merger.stage(ctx, c, candidates, o.trees)
	for i := len(c.members) - 1; i >= 0; i-- {
		unlock(o.treeMu[c.members[i]])
	}
	// Publish even after a stage error: the entries staged before the
	// failure are kept (see Merger.stage).
	var err error
	if shared {
		err = o.publishShared(c, st, len(candidates), epochBefore, stageErr)
	} else {
		err = o.publishExclusive(c, st, len(candidates), stageErr)
	}
	dt := clock.Now() - t0
	if err == nil {
		err = stageErr
	}
	if err != nil {
		return err
	}
	o.statsMu.Lock()
	o.phases.MergeWrites += dt
	o.statsMu.Unlock()
	return nil
}

// publishExclusive ends a merge step staged under the exclusive locks, and
// releases the layout lock: publish, enforce the budget, and book the
// outcome while nothing else can change the layout.
func (o *Odyssey) publishExclusive(c *combo, st *stagedMerge, nCand int, stageErr error) error {
	appended := o.merger.publish(st, false)
	if appended == 0 {
		// The paper's clock depends on it: under the exclusive locks an
		// attempt that appended nothing has always counted as a use of the
		// combination's file for LRU eviction. The shared step has never
		// ticked it, and keeps not to.
		o.merger.touchCombo(c)
	}
	evicted, err := o.merger.EnforceBudget()
	bumped := false
	if err == nil {
		// Advance the epoch only on real layout change (appends, evictions;
		// no merge plan refines a tree) — a no-op attempt must not
		// invalidate other combinations' futile marks, or two stuck
		// combinations would ping-pong exclusive retries forever.
		if appended > 0 || len(evicted) > 0 {
			o.bumpLayoutEpoch()
			bumped = true
		}
		if appended > 0 {
			o.regroupMerged(st)
		}
		o.statsMu.Lock()
		if appended == 0 && stageErr == nil {
			// Futility is memoized only on a clean no-op (a failed stage saw
			// an incomplete picture, so the next query must re-attempt).
			// Nothing else can publish during the step, and the mark takes
			// the epoch after it — this step's own evictions included — so
			// the next query skips.
			c.futile = futileMark{set: true, candidates: nCand, epoch: o.layoutEpoch.Load()}
		} else {
			c.futile = futileMark{}
		}
		for _, e := range evicted {
			e.forget()
		}
		o.statsMu.Unlock()
	}
	o.mu.Unlock()
	o.pruneCoveredRefines(bumped)
	return err
}

// publishShared ends a merge step staged under the shared locks, and
// releases the layout lock. A step that staged nothing records its futility
// and returns; one that did publishes beside the readers and takes the
// layout lock exclusively only if the space budget must evict.
func (o *Odyssey) publishShared(c *combo, st *stagedMerge, nCand int, epochBefore int64, stageErr error) error {
	appended := o.merger.publish(st, true)
	if appended > 0 {
		o.bumpLayoutEpoch() // after the publish: a query that reads the new epoch routes to it
		o.regroupMerged(st)
	}
	o.statsMu.Lock()
	if appended == 0 && stageErr == nil {
		// The mark takes the epoch from before the stage: if anything (a
		// racing refinement of another region) advanced the layout
		// mid-stage, the stale mark makes the next query re-attempt rather
		// than wedge the combination.
		c.futile = futileMark{set: true, candidates: nCand, epoch: epochBefore}
	} else {
		c.futile = futileMark{}
	}
	o.statsMu.Unlock()
	over := appended > 0 && o.merger.overBudget()
	o.mu.RUnlock()
	if appended == 0 {
		return nil
	}
	var err error
	if over {
		o.mu.Lock()
		var evicted []*combo
		evicted, err = o.merger.EnforceBudget()
		if len(evicted) > 0 {
			o.bumpLayoutEpoch()
			// Forget the evicted combinations before releasing the layout
			// lock (see combo.forget).
			o.statsMu.Lock()
			for _, e := range evicted {
				e.forget()
			}
			o.statsMu.Unlock()
		}
		o.mu.Unlock()
	}
	o.pruneCoveredRefines(true)
	return err
}

// pruneCoveredRefines drops, after a layout change, the pending refinement
// demands a publish covered from the heat ledger (behavior-identical — the
// worker would skip them — but the heap stays bounded). Called with no
// engine lock held.
func (o *Odyssey) pruneCoveredRefines(bumped bool) {
	if bumped && o.maint != nil {
		o.maint.PruneCoveredRefines(o.regionCovered)
	}
}

// runRefineTask executes one background refinement task: the region under
// the task's partition key is refined to convergence for the query window
// that demanded it, one refinement per lock acquisition — the dataset's
// write lock is released between steps, so queries on the same dataset
// interleave with the convergence instead of waiting it out, and queries
// on other datasets are completely undisturbed (the concurrent-refinement
// property the scheduler exists for). Returns the number of refinement
// operations applied.
func (o *Odyssey) runRefineTask(ds object.DatasetID, t refineTask) (int, error) {
	o.mu.RLock()
	tree, lk := o.trees[ds], o.treeMu[ds]
	o.mu.RUnlock()
	if tree == nil {
		return 0, nil
	}
	// Background refinement runs under a maintenance-priority scope, whose
	// charges attribute the task's exact cost. The context is
	// non-cancelable — layout mutations are never interrupted mid-way.
	ctx, _ := simdisk.WithOpScope(context.Background(), simdisk.PriMaintenance)
	clock := simdisk.PhaseClock(ctx, o.dev)
	var split []octree.Key
	var dt time.Duration
	var taskErr error
	var done []repairUnit
	for {
		// Re-check merge coverage before every step: a merge published
		// since the demanding query ran may now cover this cell for the
		// query's combination, and merged partitions are not refined
		// (§3.2.2) — a refining walk enforces this with its covered
		// predicate, a background task re-evaluates it across the gap.
		if o.regionCovered(ds, t) {
			break
		}
		lk.Lock()
		t0 := clock.Now()
		key, step, err := tree.RefineRegionStep(ctx, t.key, t.box, t.qVol)
		dt += clock.Now() - t0
		lk.Unlock()
		if err != nil {
			// A partition the step could not read is re-derived, and the
			// step tried again.
			if done, err = o.repair(ctx, err, done); err == nil {
				continue
			}
			taskErr = err
			break
		}
		if !step {
			break
		}
		split = append(split, key)
	}
	if len(split) > 0 {
		o.publishRefined(ds, tree.FanoutPerDim(), split)
	}
	o.statsMu.Lock()
	o.phases.Refinement += dt
	o.statsMu.Unlock()
	return len(split), taskErr
}

// regionCovered reports whether the merge file routing the task's
// combination now covers the task's cell — then the refinement demand is
// void (the partition is served from the merge file and never refined).
func (o *Odyssey) regionCovered(ds object.DatasetID, t refineTask) bool {
	if o.cfg.DisableMerging {
		return false
	}
	o.mu.RLock()
	defer o.mu.RUnlock()
	tree := o.trees[ds]
	if tree == nil {
		return true // dataset vanished; nothing to refine
	}
	mf, _ := o.merger.lookup(t.combo.key, t.combo.members)
	if mf == nil || !mf.memberOf[ds] {
		return false
	}
	return mf.covers(t.key, tree.FanoutPerDim())
}

// runMergeTask executes one background merge task: the merge step for the
// task's combination, single-flight with any direct trigger, under a
// maintenance-priority scope whose charges attribute the task's exact cost.
func (o *Odyssey) runMergeTask(c *combo) error {
	ctx, _ := simdisk.WithOpScope(context.Background(), simdisk.PriMaintenance)
	return o.mergeOnce(ctx, c)
}

// CacheStats snapshots the result-cache ledger (all zero when
// Config.CacheResults is off).
func (o *Odyssey) CacheStats() CacheStats {
	if o.rcache == nil {
		return CacheStats{}
	}
	return o.rcache.Stats()
}

// SharingStats snapshots the sharing counters. SharedBuilds counts on every
// configuration (level-0 builds are always single-flight); AttachedScans
// stays zero when Config.CacheResults is off.
func (o *Odyssey) SharingStats() SharingStats {
	return SharingStats{
		AttachedScans: o.attachedScans.Load(),
		SharedBuilds:  o.sharedBuilds.Load(),
	}
}

// MaintenanceStats snapshots the background pipeline's counters (zero when
// maintenance is synchronous).
func (o *Odyssey) MaintenanceStats() MaintenanceStats {
	if o.maint == nil {
		return MaintenanceStats{}
	}
	return o.maint.Stats()
}

// MaintenanceErr returns the most recent background task error, nil when
// every task succeeded or maintenance is synchronous.
func (o *Odyssey) MaintenanceErr() error {
	if o.maint == nil {
		return nil
	}
	return o.maint.Err()
}

// FlushResultCache drops every entry of the result cache (a no-op with
// caching off). An operator control and measurement knob: benchmarks use it
// to start a measured phase cold-cache without touching the layout.
func (o *Odyssey) FlushResultCache() {
	if o.rcache != nil {
		o.rcache.Invalidate()
	}
}

// Quiesce blocks until the maintenance pipeline has drained every queued
// and running task — the point where the layout has converged for the
// traffic seen so far. It returns immediately when maintenance is
// synchronous (the layout is always converged then), and early with a
// cancellation error when ctx expires first.
func (o *Odyssey) Quiesce(ctx context.Context) error {
	if o.maint == nil {
		return nil
	}
	return o.maint.Quiesce(ctx)
}

// Close shuts the maintenance pipeline down: queued tasks are dropped,
// in-flight tasks run to completion (layout mutations are never
// interrupted mid-way), and the worker goroutines exit before Close
// returns. Queries remain answerable afterwards — they simply stop
// scheduling maintenance. Safe to call more than once; a no-op when
// maintenance is synchronous.
func (o *Odyssey) Close() {
	if o.maint != nil {
		o.maint.Close()
	}
}

// LayoutSignature renders the physical layout deterministically: per
// dataset the sorted leaf cell keys, per merge file the combination and its
// sorted entry keys. Two engines that converged to the same layout produce
// identical strings — the async-vs-sync equivalence tests compare layouts
// through it, and TestPaperClockPinned pins its hash. Meaningful on a
// quiescent engine; safe (but racy in content) while queries run.
func (o *Odyssey) LayoutSignature() string {
	o.mu.RLock()
	defer o.mu.RUnlock()
	ids := make([]object.DatasetID, 0, len(o.trees))
	for ds := range o.trees {
		ids = append(ids, ds)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var b strings.Builder
	for _, ds := range ids {
		tree, lk := o.trees[ds], o.treeMu[ds]
		lk.RLock()
		fmt.Fprintf(&b, "ds%d:", ds)
		if tree.Built() {
			keys := make([]octree.Key, 0, tree.NumLeaves())
			for _, p := range tree.Lookup(tree.Bounds()) {
				keys = append(keys, p.Key())
			}
			sortKeys(keys)
			for _, k := range keys {
				fmt.Fprintf(&b, " %d/%d.%d.%d", k.Level, k.X, k.Y, k.Z)
			}
		} else {
			b.WriteString(" unbuilt")
		}
		b.WriteByte('\n')
		lk.RUnlock()
	}
	for _, mf := range o.merger.Files() {
		fmt.Fprintf(&b, "merge %s:", mf.Combo())
		for _, k := range mf.EntryKeys() {
			fmt.Fprintf(&b, " %d/%d.%d.%d", k.Level, k.X, k.Y, k.Z)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
