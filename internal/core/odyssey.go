package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"spaceodyssey/internal/geom"
	"spaceodyssey/internal/object"
	"spaceodyssey/internal/octree"
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
	// drains concurrently across datasets. Default off: the synchronous
	// inline pipeline of the paper.
	AsyncMaintenance bool
	// MaintenanceWorkers bounds the background scheduler's worker pool
	// (<= 0 defaults to 2). Only meaningful with AsyncMaintenance.
	MaintenanceWorkers int
	// ShareScans turns on work sharing across concurrent queries: the
	// storage layer coalesces overlapping run reads into single-flight
	// device reads, the engine attaches queries to in-flight partition
	// scans of the same (dataset, cell) within a layout epoch, and level-0
	// first-touch builds are single-flight per dataset. Results are
	// unchanged — only the redundant physical work is. Default off: every
	// query pays its own I/O, the original cost model bit for bit.
	ShareScans bool
	// CacheResults turns on the epoch-scoped result cache: completed
	// partition scans and merge-segment reads are retained keyed on
	// (dataset, cell, layout epoch), so later queries of the same cells —
	// and queries whose extended window is contained in a cached region —
	// are answered without device reads. The cache is flushed on every
	// layout publish through bumpLayoutEpoch, results are byte-identical to
	// the uncached engine. Default off: behavior and I/O accounting are
	// bit-for-bit the original model.
	CacheResults bool
	// CacheCapacity bounds the result cache in cached objects (<= 0
	// defaults to DefaultCacheCapacity). Eviction is heat-aware: coldest
	// entries (fewest hits, oldest among equals) leave first.
	CacheCapacity int64
	// HeatHalfLife decays every heat ledger — maintenance task priority,
	// result-cache eviction order, the per-dataset placement heat — with the
	// given half-life in queries: an access count halves every HeatHalfLife
	// queries, applied lazily on read (see decay.go). A migrated hotspot
	// then releases its cache entries and placement priority instead of
	// pinning them forever. 0 (the default) disables decay: all orderings
	// are bit-for-bit the legacy cumulative-count behavior.
	HeatHalfLife int
	// AdaptiveCache lets the result cache tune its own capacity between
	// layout epochs: shadow-LRU ghost entries record recently evicted keys,
	// a re-miss on a ghost is evidence the cache is undersized (grow toward
	// the knee of the hit curve), sustained low occupancy with no evictions
	// is evidence it is oversized (shrink). CacheCapacity becomes the
	// starting point instead of a fixed bound. Capacity only affects which
	// reads hit the cache — results are identical regardless.
	AdaptiveCache bool
	// QuarantineAfter is how many consecutive failures of one maintenance
	// unit (a dataset cell's refinement, a combination's merge) quarantine
	// it — its enqueues are then dropped until Unquarantine, so a poisoned
	// cell cannot wedge the scheduler. <= 0 defaults to
	// DefaultQuarantineAfter. Permanent device faults quarantine on first
	// sight. Only meaningful with AsyncMaintenance.
	QuarantineAfter int
	// MaintenanceRetryBackoff is the base wall-clock delay before a failed
	// maintenance task is re-enqueued, doubling per consecutive failure with
	// up to 50% jitter. <= 0 defaults to DefaultMaintenanceRetryBackoff.
	MaintenanceRetryBackoff time.Duration
	// MaintenanceHealthRing bounds the failure-history ring MaintenanceHealth
	// reports. <= 0 defaults to DefaultMaintenanceHealthRing.
	MaintenanceHealthRing int
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

// Total sums all phases.
func (p PhaseTimes) Total() time.Duration {
	return p.LevelZeroBuild + p.Refinement + p.TreeReads + p.MergeReads + p.MergeWrites
}

// Metrics aggregates engine activity for reporting.
type Metrics struct {
	Queries             int
	Refinements         int
	TreesBuilt          int
	PartitionsFromTree  int
	PartitionsFromMerge int
	MergeFilesCreated   int
	PartitionsMerged    int
	MergeEvictions      int
	SegmentsShared      int
	CurrentMergeThresh  int
	RelationCounts      map[Relation]int
	Phases              PhaseTimes
}

// Odyssey is the Space Odyssey engine: adaptive per-dataset octrees plus
// cross-dataset merge files, orchestrated by the query processor in Query.
//
// All methods are safe for concurrent use. The locking discipline splits
// the read path from the mutate path:
//
//   - mu (the layout lock) is held shared for the whole read side of a
//     query — merge-file routing, the per-dataset tree walks, merge-segment
//     reads — and exclusively only by layout mutations: the post-query merge
//     step (MergeOrExtend + EnforceBudget) and AddRaw.
//   - treeMu[ds] guards one dataset's octree. Queries take it shared when
//     octree.Tree.NeedsWrite proves the walk is read-only, exclusive when
//     the query must run the level-0 build or refine a partition — so
//     refinement excludes only readers of the affected dataset, never the
//     whole engine. The merge step takes the write lock of every member
//     dataset (RefineTo can refine lagging trees).
//   - statsMu guards the statistics collector and the metric counters;
//     critical sections are a few map operations.
//
// Lock order is always mu -> treeMu[ds] -> statsMu; treeMu locks are never
// nested during queries and are taken in sorted dataset order by the merge
// step.
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
	// threshold, or the async scheduler's task — attach to the in-flight
	// step instead of queueing repeated exclusive merges of the same
	// candidates. It also discharges PrepareMerge's single-flight
	// precondition structurally rather than by scheduler convention.
	mergeFlight flightGroup[ComboKey]

	// maint is the background maintenance scheduler; nil unless
	// Config.AsyncMaintenance is set. See maintenance.go.
	maint *maintainer

	// scans is the in-flight scan-sharing registry; nil unless
	// Config.ShareScans is set. buildMu/building single-flight the level-0
	// first-touch builds (one builder per dataset, waiters block on the
	// channel instead of herding on the tree lock). See scanshare.go.
	scans    *scanRegistry
	buildMu  sync.Mutex
	building map[object.DatasetID]chan struct{}

	// rcache is the epoch-scoped result cache; nil unless
	// Config.CacheResults is set. See resultcache.go.
	rcache *resultCache

	// layoutEpoch counts physical-layout changes: level-0 builds,
	// refinements (query- and merge-time) and merge-file evictions. The
	// steady-state fast path uses it to recognize that a previously futile
	// merge attempt cannot succeed now either.
	layoutEpoch atomic.Int64
	// futile (guarded by statsMu) records, per combination, the candidate
	// count and layout epoch as of the last time merging was found to have
	// no work: a MergeOrExtend attempt that appended nothing (candidates
	// can be unmergeable under the level policy — e.g. a key one tree has
	// refined past), or a NeedsMerge scan that found everything covered.
	// While neither count nor epoch has changed, the merge step would be a
	// no-op and both the exclusive lock and the coverage re-scan are
	// skipped.
	futile map[ComboKey]futileMark

	// heatTick is the logical clock heat decay runs on: one tick per query.
	// halfLife mirrors Config.HeatHalfLife as a float (0 = no decay).
	heatTick atomic.Int64
	halfLife float64

	statsMu        sync.Mutex // guards everything below
	stats          *Collector
	queries        int
	partsFromTree  int
	partsFromMerge int
	relationCounts map[Relation]int
	phases         PhaseTimes
	// dsQueries tracks how often each dataset appeared in a query — the
	// per-dataset heat the merge-file placement group is derived from —
	// decayed under Config.HeatHalfLife (without decay, val is the exact
	// integer count).
	dsQueries map[object.DatasetID]*dsHeat
}

// dsHeat is one dataset's decayed query count: val as of tick.
type dsHeat struct {
	val  float64
	tick int64
}

// decayed returns the heat as of tick now.
func (h *dsHeat) decayed(now int64, halfLife float64) float64 {
	if halfLife <= 0 || now <= h.tick {
		return h.val
	}
	return h.val * math.Exp2(-float64(now-h.tick)/halfLife)
}

// New creates the engine over the given raw files. Nothing is indexed until
// queries arrive.
func New(dev simdisk.Storage, raws []*rawfile.Raw, bounds geom.Box, cfg Config) (*Odyssey, error) {
	trees := make(map[object.DatasetID]*octree.Tree, len(raws))
	treeMu := make(map[object.DatasetID]*sync.RWMutex, len(raws))
	for _, raw := range raws {
		if _, dup := trees[raw.Dataset()]; dup {
			return nil, fmt.Errorf("core: duplicate dataset %d", raw.Dataset())
		}
		tree, err := octree.New(dev, raw, bounds, cfg.Octree)
		if err != nil {
			return nil, err
		}
		trees[raw.Dataset()] = tree
		treeMu[raw.Dataset()] = new(sync.RWMutex)
	}
	o := &Odyssey{
		dev:            dev,
		cfg:            cfg,
		bounds:         bounds,
		trees:          trees,
		treeMu:         treeMu,
		futile:         make(map[ComboKey]futileMark),
		stats:          NewCollector(),
		merger:         NewMerger(dev, cfg.Merger),
		relationCounts: make(map[Relation]int),
		dsQueries:      make(map[object.DatasetID]*dsHeat),
		halfLife:       float64(cfg.HeatHalfLife),
	}
	// Merge files co-locate with their hottest member dataset by default:
	// a superset/subset-routed query most often reads the merge file next
	// to that dataset's tree, so placing them together saves cross-device
	// head movement on an array.
	o.merger.PlaceGroup = func(members []object.DatasetID) string {
		return rawfile.GroupName(o.hottestMember(members))
	}
	if cfg.ShareScans {
		o.scans = newScanRegistry()
		o.building = make(map[object.DatasetID]chan struct{})
		dev.SetShareReads(true)
	}
	if cfg.CacheResults {
		o.rcache = newResultCache(bounds, cfg.CacheCapacity)
		o.rcache.halfLife = o.halfLife
		o.rcache.tick = o.heatTick.Load
		if cfg.AdaptiveCache {
			o.rcache.enableAdaptive()
		}
	}
	if o.scans != nil || o.rcache != nil {
		// The share-reader hook carries both layers: single-flight scan
		// attachment (sharing) and result retention (caching); either one
		// alone still needs the hook installed.
		for ds, tree := range trees {
			tree.ShareReader = o.shareReaderFor(ds, tree)
		}
	}
	if cfg.AsyncMaintenance {
		o.maint = newMaintainer(o, cfg.MaintenanceWorkers)
	}
	return o, nil
}

// hottestMember returns the member dataset queried most often so far (ties
// resolve to the lowest id; members must be non-empty and sorted).
func (o *Odyssey) hottestMember(members []object.DatasetID) object.DatasetID {
	now := o.heatTick.Load()
	o.statsMu.Lock()
	defer o.statsMu.Unlock()
	best, bestN := members[0], -1.0
	for _, ds := range members {
		var n float64
		if h := o.dsQueries[ds]; h != nil {
			n = h.decayed(now, o.halfLife)
		}
		if n > bestN {
			best, bestN = ds, n
		}
	}
	return best
}

// futileMark snapshots the state under which a merge attempt appended
// nothing; see Odyssey.futile.
type futileMark struct {
	candidates int
	epoch      int64
}

// AddRaw registers one more raw dataset with the engine. The dataset is
// indexed lazily like any other; adding is cheap and can happen at any
// point of the exploration session, including concurrently with queries.
func (o *Odyssey) AddRaw(raw *rawfile.Raw) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if _, dup := o.trees[raw.Dataset()]; dup {
		return fmt.Errorf("core: duplicate dataset %d", raw.Dataset())
	}
	tree, err := octree.New(o.dev, raw, o.bounds, o.cfg.Octree)
	if err != nil {
		return err
	}
	if o.scans != nil || o.rcache != nil {
		tree.ShareReader = o.shareReaderFor(raw.Dataset(), tree)
	}
	o.trees[raw.Dataset()] = tree
	o.treeMu[raw.Dataset()] = new(sync.RWMutex)
	return nil
}

// Name implements engine.Engine.
func (o *Odyssey) Name() string {
	if o.cfg.DisableMerging {
		return "Odyssey-NoMerge"
	}
	return "Odyssey"
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

// Stats exposes the statistics collector for inspection. The collector is
// guarded by the engine during queries; single-threaded inspection only.
func (o *Odyssey) Stats() *Collector { return o.stats }

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
	m := Metrics{
		Refinements:        refinements,
		TreesBuilt:         built,
		MergeFilesCreated:  o.merger.MergesCreated,
		PartitionsMerged:   o.merger.PartitionsMerged,
		MergeEvictions:     o.merger.Evictions,
		SegmentsShared:     o.merger.SegmentsShared,
		CurrentMergeThresh: o.merger.Threshold(),
	}
	o.mu.RUnlock()

	o.statsMu.Lock()
	m.Queries = o.queries
	m.PartitionsFromTree = o.partsFromTree
	m.PartitionsFromMerge = o.partsFromMerge
	rel := make(map[Relation]int, len(o.relationCounts))
	for k, v := range o.relationCounts {
		rel[k] = v
	}
	m.RelationCounts = rel
	m.Phases = o.phases
	o.statsMu.Unlock()
	return m
}

// queryTree runs the per-dataset tree walk with the read/mutate split: a
// shared lock when NeedsWrite proves the walk is read-only, an exclusive
// lock when the query must build level 0 or refine. covered is the
// side-effect-free merge-coverage predicate matching hook, so leaves served
// from a merge file do not force the exclusive path. Because NeedsWrite is
// evaluated under the shared lock and only Query mutates trees, the
// read-only decision cannot be invalidated before the walk completes.
// Cancellation mid-walk releases the lock like any other error; refinements
// that completed before the abort still bump the layout epoch.
func (o *Odyssey) queryTree(ctx context.Context, tree *octree.Tree, lk *sync.RWMutex, q geom.Box,
	hook, covered func(*octree.Partition) bool) (octree.QueryResult, error) {
	lk.RLock()
	if !tree.NeedsWrite(q, covered) {
		res, err := tree.QueryCtx(ctx, q, hook)
		lk.RUnlock()
		return res, err
	}
	lk.RUnlock()
	lk.Lock()
	built := tree.Built()
	res, err := tree.QueryCtx(ctx, q, hook)
	if res.Refined > 0 || (!built && tree.Built()) {
		o.bumpLayoutEpoch()
	}
	lk.Unlock()
	return res, err
}

// queryTreeAsync is the read-mostly variant of queryTree used when the
// maintenance pipeline is on: the walk never refines — leaves that qualify
// are reported in the result's WantRefine for the scheduler to pick up —
// so the exclusive tree lock is taken only for the level-0 first-touch
// build (the one mutation a query cannot answer without).
func (o *Odyssey) queryTreeAsync(ctx context.Context, tree *octree.Tree, lk *sync.RWMutex, q geom.Box,
	hook func(*octree.Partition) bool) (octree.QueryResult, error) {
	lk.RLock()
	if tree.Built() {
		res, err := tree.QueryReadOnlyCtx(ctx, q, hook)
		lk.RUnlock()
		return res, err
	}
	lk.RUnlock()
	lk.Lock()
	var res octree.QueryResult
	built := tree.Built()
	clock := simdisk.PhaseClock(ctx, o.dev)
	t0 := clock()
	err := tree.EnsureBuiltCtx(ctx)
	buildTime := clock() - t0
	if err == nil {
		res, err = tree.QueryReadOnlyCtx(ctx, q, hook)
	}
	res.BuildTime += buildTime
	if !built && tree.Built() {
		o.bumpLayoutEpoch()
	}
	lk.Unlock()
	return res, err
}

// answerContained tries to answer one dataset's share of a query entirely
// from the result cache: under the dataset's shared tree lock (so Built and
// MaxExtent are stable) it extends the query window by the tree's max
// object half-extent and probes the cache for a region containing it. On a
// hit the cached region content is filtered by the original query box —
// exact, because every object intersecting q has its center inside the
// extended window, hence inside the region. Only called with caching on.
func (o *Odyssey) answerContained(ds object.DatasetID, tree *octree.Tree, q geom.Box) ([]object.Object, bool) {
	lk := o.treeMu[ds]
	lk.RLock()
	defer lk.RUnlock()
	if !tree.Built() {
		return nil, false
	}
	ext := q.Expand(tree.MaxExtent())
	objs, ok := o.rcache.AnswerContained(ds, tree.FanoutPerDim(), o.layoutEpoch.Load(), ext)
	if !ok {
		return nil, false
	}
	var out []object.Object
	for _, obj := range objs {
		if obj.Intersects(q) {
			out = append(out, obj)
		}
	}
	return out, true
}

// Query implements engine.Engine: it executes the paper's full pipeline —
// statistics, merge-file routing (exact / superset / subset / none),
// incremental indexing with per-query refinement, merge-file reads, and the
// post-query merge step. Queries may run concurrently; see the type comment
// for the locking discipline.
func (o *Odyssey) Query(q geom.Box, datasets []object.DatasetID) ([]object.Object, error) {
	return o.QueryCtx(context.Background(), q, datasets)
}

// QueryCtx is Query with cancellation. The context is observed on the read
// side only — between and inside the per-dataset tree walks and the
// merge-segment reads, down to page-boundary granularity in simdisk — and a
// canceled query returns a wrapped simdisk.ErrCanceled with nil objects,
// never a partial result. Layout mutations are never interrupted mid-way:
// a refinement that already started completes, and the post-query merge
// step is skipped entirely (not aborted) when the context has expired —
// merging is housekeeping for future queries, so a caller that walked away
// should not pay for it. A query whose context expires only after the read
// side finished still returns its full, correct result.
func (o *Odyssey) QueryCtx(ctx context.Context, q geom.Box, datasets []object.DatasetID) ([]object.Object, error) {
	if err := simdisk.CheckCtx(ctx); err != nil {
		return nil, err
	}
	// With caching on, a per-query scope rides the context so the layers
	// that actually perform device I/O can mark it; a query whose scope
	// stays clean is counted as served with zero device reads.
	var scope *cacheScope
	if o.rcache != nil {
		ctx, scope = withCacheScope(ctx)
	}
	ordered := append([]object.DatasetID(nil), datasets...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i] < ordered[j] })
	key := KeyOf(ordered)

	o.mu.RLock()
	for _, ds := range ordered {
		if o.trees[ds] == nil {
			o.mu.RUnlock()
			return nil, fmt.Errorf("core: unknown dataset %d", ds)
		}
	}

	tick := o.heatTick.Add(1) // one decay tick per query
	o.statsMu.Lock()
	o.queries++
	for _, ds := range ordered {
		h := o.dsQueries[ds]
		if h == nil {
			h = &dsHeat{}
			o.dsQueries[ds] = h
		}
		h.val = h.decayed(tick, o.halfLife) + 1
		h.tick = tick
	}
	count := o.stats.RecordQuery(key)
	o.statsMu.Unlock()

	// Merge-file routing (§3.2.3).
	var mf *MergeFile
	rel := RelNone
	if !o.cfg.DisableMerging {
		mf, rel = o.merger.Lookup(ordered)
	}
	o.statsMu.Lock()
	o.relationCounts[rel]++
	o.statsMu.Unlock()

	// Per-dataset execution through the Adaptor. Partitions covered by the
	// chosen merge file are served from it (and, per §3.2.2, not refined).
	type mergeRead struct {
		entry octree.Key
		ds    object.DatasetID
	}
	servedSet := make(map[mergeRead]bool)
	servedLeaves := 0
	async := o.maint != nil
	type dsWants struct {
		ds   object.DatasetID
		keys []octree.Key
	}
	var wants []dsWants
	var out []object.Object
	var touched []octree.Key
	var phases PhaseTimes
	for _, ds := range ordered {
		tree := o.trees[ds]
		if o.rcache != nil {
			// Containment answering: a query whose extended window lies
			// inside a cached region is answered by filtering the region's
			// objects — no build, no walk, no merge routing, zero device
			// reads for this dataset. Objects are keyed by center, so every
			// object intersecting q has its center inside the extended
			// window and therefore inside the cached cell; filtering the
			// full cell content is exact. Partition statistics are not
			// accumulated for contained answers (there was no walk); the
			// layout keeps converging from the queries that do walk.
			if objs, ok := o.answerContained(ds, tree, q); ok {
				out = append(out, objs...)
				continue
			}
		}
		if o.scans != nil {
			// Single-flight the level-0 first touch: one builder per
			// dataset, concurrent queries wait on the build instead of
			// herding on the exclusive tree lock.
			bt, err := o.ensureBuiltShared(ctx, ds, tree, o.treeMu[ds])
			if err != nil {
				o.mu.RUnlock()
				return nil, fmt.Errorf("core: dataset %d: %w", ds, err)
			}
			if bt > 0 {
				missCacheScope(ctx)
			}
			phases.LevelZeroBuild += bt
		}
		var hook, covered func(*octree.Partition) bool
		if mf != nil && mf.memberOf[ds] {
			ds := ds
			fanout := tree.FanoutPerDim()
			hook = func(p *octree.Partition) bool {
				entry, ok := mf.covering(p.Key(), fanout)
				if !ok {
					return false
				}
				servedSet[mergeRead{entry, ds}] = true
				servedLeaves++
				return true
			}
			covered = func(p *octree.Partition) bool {
				_, ok := mf.covering(p.Key(), fanout)
				return ok
			}
		}
		var res octree.QueryResult
		var err error
		if async {
			res, err = o.queryTreeAsync(ctx, tree, o.treeMu[ds], q, hook)
		} else {
			res, err = o.queryTree(ctx, tree, o.treeMu[ds], q, hook, covered)
		}
		if err != nil {
			o.mu.RUnlock()
			return nil, fmt.Errorf("core: dataset %d: %w", ds, err)
		}
		if o.rcache != nil && (res.BuildTime > 0 || res.RefineTime > 0 || res.Refined > 0) {
			// Builds and refinements read the device outside the
			// share-reader hook; a query that triggered either was not
			// answered read-free.
			missCacheScope(ctx)
		}
		if len(res.WantRefine) > 0 {
			wants = append(wants, dsWants{ds: ds, keys: res.WantRefine})
		}
		phases.LevelZeroBuild += res.BuildTime
		phases.Refinement += res.RefineTime
		phases.TreeReads += res.ReadTime
		out = append(out, res.Objects...)
		for _, p := range res.Touched {
			touched = append(touched, p.Key())
		}
	}

	// Read the merge-file segments, ordered by file position so the device
	// sees a (mostly) sequential pass over the merge file.
	if len(servedSet) > 0 {
		reads := make([]mergeRead, 0, len(servedSet))
		for r := range servedSet {
			reads = append(reads, r)
		}
		sort.Slice(reads, func(i, j int) bool {
			a := mf.entries[reads[i].entry][reads[i].ds].run.Start
			b := mf.entries[reads[j].entry][reads[j].ds].run.Start
			return a < b
		})
		// Merge segments cache like partitions: a segment is the full
		// per-dataset content of its entry cell, so the entry key and its
		// cell box are the cache's (cell, region) metadata. Merged cells
		// are frozen coarse (merged partitions are never refined, §3.2.2),
		// which makes their cached regions the prime source of containment
		// answers.
		var qEpoch int64
		var fanout int
		if o.rcache != nil {
			qEpoch = o.layoutEpoch.Load()
			fanout = o.trees[ordered[0]].FanoutPerDim()
		}
		clock := simdisk.PhaseClock(ctx, o.dev)
		t0 := clock()
		for _, r := range reads {
			var objs []object.Object
			hit := false
			if o.rcache != nil {
				objs, hit = o.rcache.Lookup(r.ds, r.entry, qEpoch)
			}
			if !hit {
				var err error
				objs, err = o.merger.ReadSegmentCtx(ctx, mf, r.entry, r.ds)
				if err != nil {
					o.mu.RUnlock()
					return nil, err
				}
				if o.rcache != nil {
					missCacheScope(ctx)
					o.rcache.Insert(r.ds, r.entry, qEpoch, EntryBox(o.bounds, r.entry, fanout), objs)
				}
			}
			for _, obj := range objs {
				if obj.Intersects(q) {
					out = append(out, obj)
				}
			}
		}
		phases.MergeReads += clock() - t0
	}

	o.statsMu.Lock()
	o.phases.LevelZeroBuild += phases.LevelZeroBuild
	o.phases.Refinement += phases.Refinement
	o.phases.TreeReads += phases.TreeReads
	o.phases.MergeReads += phases.MergeReads
	o.partsFromMerge += len(servedSet)
	o.partsFromTree += len(touched) - servedLeaves
	o.stats.RecordPartitions(key, touched)
	o.statsMu.Unlock()

	// The read side is complete; a scope no I/O layer marked means every
	// partition and segment came from the result cache (or another query's
	// in-flight scan) — the query cost zero device reads. The merge step
	// below is layout maintenance, not query reading, and is not attributed.
	if scope != nil && !scope.missed.Load() {
		o.rcache.zeroReads.Add(1)
	}

	o.merger.OnQuery()
	// A context that expired after the read side completed skips the merge
	// step instead of aborting inside it: the result is already correct and
	// complete, and layout reorganization must never be left half-done.
	doMerge := !o.cfg.DisableMerging && count >= o.merger.Threshold() &&
		simdisk.CheckCtx(ctx) == nil
	if doMerge {
		// Steady-state fast path: skip the exclusive merge step when it
		// would provably be a no-op — either every accumulated partition is
		// already covered by the combination's merge file, or the last
		// attempt was futile and nothing it depends on (candidate set,
		// physical layout) has changed since. Without this, every
		// post-threshold query would barrier the whole engine on the layout
		// lock.
		epoch := o.layoutEpoch.Load()
		o.statsMu.Lock()
		nCand := o.stats.NumPartitions(key)
		mark, tried := o.futile[key]
		o.statsMu.Unlock()
		if tried && nCand <= mark.candidates && epoch == mark.epoch {
			doMerge = false
		} else if nCand == 0 {
			doMerge = false
		} else {
			fanout := o.trees[ordered[0]].FanoutPerDim()
			o.statsMu.Lock()
			candidates := o.stats.PartitionsUnsorted(key)
			o.statsMu.Unlock()
			doMerge = o.merger.NeedsMerge(key, ordered, candidates, fanout)
			if !doMerge {
				// Everything covered: memoize so converged steady-state
				// traffic skips even this coverage scan next time.
				o.statsMu.Lock()
				o.futile[key] = futileMark{candidates: nCand, epoch: epoch}
				o.statsMu.Unlock()
			}
		}
	}
	o.mu.RUnlock()

	// Asynchronous maintenance: the query returns now; refinement and the
	// merge step become coalescing background tasks. The refinements are
	// enqueued first so the scheduler's merge gate (members must be
	// refinement-quiescent) orders this query's merge after them.
	if async {
		qVol := q.Volume()
		for _, w := range wants {
			o.maint.EnqueueRefine(w.ds, w.keys, q, qVol, ordered)
		}
		if doMerge {
			o.maint.EnqueueMerge(key, ordered)
		}
		return out, nil
	}

	// Post-query merge step (§3.2.1): once the combination crossed mt,
	// merge (or extend the merge file with) every qualifying partition.
	// Concurrent queries that crossed the threshold together single-flight
	// the step per combination — the late arrivals attach to the leader's
	// merge instead of queueing identical exclusive steps behind it. The
	// step runs under a non-cancelable context (layout mutations are never
	// interrupted mid-way) that keeps the query's QoS scope, so the merge
	// I/O is charged to the query that triggered it.
	if doMerge {
		mctx := context.WithoutCancel(ctx)
		if _, err := o.mergeFlight.Do(key, func() error {
			return o.runMergeStep(mctx, key, ordered)
		}); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// runMergeStep is the synchronous merge step. Layout reorganization takes
// the exclusive layout lock plus the write lock of every member dataset
// (RefineTo may refine lagging trees), runs MergeOrExtend plus the budget
// enforcement, and maintains the futility memo and the layout epoch.
func (o *Odyssey) runMergeStep(ctx context.Context, key ComboKey, ordered []object.DatasetID) error {
	o.mu.Lock()
	for _, ds := range ordered {
		o.treeMu[ds].Lock()
	}
	o.statsMu.Lock()
	candidates := o.stats.Partitions(key)
	o.statsMu.Unlock()
	refBefore := 0
	for _, ds := range ordered {
		refBefore += o.trees[ds].Refinements
	}
	clock := simdisk.PhaseClock(ctx, o.dev)
	t0 := clock()
	appended, err := o.merger.MergeOrExtend(ctx, key, ordered, candidates, o.trees)
	var evicted []ComboKey
	if err == nil {
		evicted, err = o.merger.EnforceBudget()
	}
	dt := clock() - t0
	refAfter := 0
	for _, ds := range ordered {
		refAfter += o.trees[ds].Refinements
	}
	bumped := false
	if err == nil {
		// Advance the epoch only on real layout change (appends,
		// merge-time refinement, evictions) — a no-op attempt must not
		// invalidate other combinations' futile marks, or two stuck
		// combinations would ping-pong exclusive retries forever.
		if appended > 0 || refAfter != refBefore || len(evicted) > 0 {
			o.bumpLayoutEpoch()
			bumped = true
		}
		o.statsMu.Lock()
		if appended == 0 {
			o.futile[key] = futileMark{candidates: len(candidates), epoch: o.layoutEpoch.Load()}
		} else {
			delete(o.futile, key)
		}
		// Reset evicted combinations' statistics before releasing the
		// layout lock: a concurrent query that observed the eviction
		// with stale pre-eviction counts would immediately re-merge
		// the combination from its old candidates, thrashing the
		// budget. Evicted combinations must re-earn merging from zero.
		for _, combo := range evicted {
			delete(o.futile, combo)
			o.stats.Reset(combo)
		}
		o.statsMu.Unlock()
	}
	for i := len(ordered) - 1; i >= 0; i-- {
		o.treeMu[ordered[i]].Unlock()
	}
	o.mu.Unlock()
	if bumped && o.maint != nil {
		// The publish may have covered cells with pending refinement
		// demands; drop them from the heat ledger (behavior-identical —
		// the worker would skip them — but the heap stays bounded).
		o.maint.PruneCoveredRefines(o.regionCovered)
	}
	if err != nil {
		return err
	}
	o.statsMu.Lock()
	o.phases.MergeWrites += dt
	o.statsMu.Unlock()
	return nil
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
	// Background refinement runs under a maintenance-priority scope: the
	// scope's charges attribute the task's exact cost, and each step waits
	// out the background I/O budget before taking the dataset's write lock
	// — the wait sits at a lock-free point, so a throttled refinement never
	// blocks the foreground queries the budget protects. The context is
	// non-cancelable — layout mutations are never interrupted mid-way.
	ctx, _ := simdisk.WithOpScope(context.Background(), simdisk.PriMaintenance)
	clock := simdisk.PhaseClock(ctx, o.dev)
	refined := 0
	var dt time.Duration
	var taskErr error
	for {
		// Re-check merge coverage before every step: a merge published
		// since the demanding query ran may now cover this cell for the
		// query's combination, and merged partitions are not refined
		// (§3.2.2) — the sync pipeline enforces this with its covered
		// predicate, the async pipeline re-evaluates it across the gap.
		if o.regionCovered(ds, t) {
			break
		}
		if err := o.dev.AwaitMaintenanceTurn(ctx); err != nil {
			taskErr = err
			break
		}
		lk.Lock()
		t0 := clock()
		step, err := tree.RefineRegionStep(ctx, t.key, t.box, t.qVol)
		dt += clock() - t0
		lk.Unlock()
		if err != nil {
			taskErr = err
			break
		}
		if !step {
			break
		}
		refined++
	}
	if refined > 0 {
		o.bumpLayoutEpoch()
	}
	o.statsMu.Lock()
	o.phases.Refinement += dt
	o.statsMu.Unlock()
	return refined, taskErr
}

// regionCovered reports whether the merge file routing the task's
// combination now covers the task's cell — then the refinement demand is
// void (the partition is served from the merge file and never refined).
func (o *Odyssey) regionCovered(ds object.DatasetID, t refineTask) bool {
	if o.cfg.DisableMerging || len(t.members) == 0 {
		return false
	}
	o.mu.RLock()
	defer o.mu.RUnlock()
	tree := o.trees[ds]
	if tree == nil {
		return true // dataset vanished; nothing to refine
	}
	mf, _ := o.merger.LookupNoTouch(t.members)
	if mf == nil || !mf.memberOf[ds] {
		return false
	}
	_, covered := mf.covering(t.key, tree.FanoutPerDim())
	return covered
}

// runMergeAsync executes one background merge task. Under the default
// configuration (same-level policy, no segment sharing) it uses the
// two-stage path: PrepareMerge copies partitions under the shared layout
// lock plus member tree read locks — queries keep flowing during the copy
// I/O — and PublishMerge registers the entries atomically under a brief
// exclusive lock, so a racing query observes either none or all of the
// step's entries, never a partial merge file. Configurations the staged
// path cannot serve fall back to the synchronous exclusive merge step.
// The whole step is single-flight per combination (PrepareMerge's
// precondition), and runs under a maintenance-priority scope: a storage
// budget throttles the copy I/O while foreground queries are in flight.
func (o *Odyssey) runMergeAsync(key ComboKey, ordered []object.DatasetID) error {
	_, err := o.mergeFlight.Do(key, func() error {
		return o.mergeAsyncStep(key, ordered)
	})
	return err
}

// mergeAsyncStep is runMergeAsync's body; callers hold the combination's
// mergeFlight slot.
func (o *Odyssey) mergeAsyncStep(key ComboKey, ordered []object.DatasetID) error {
	ctx, _ := simdisk.WithOpScope(context.Background(), simdisk.PriMaintenance)
	// Honor the background I/O budget before acquiring any tree locks (a
	// gated wait under the member read locks would stall racing writers and,
	// behind them, foreground readers). A query whose sync merge attaches to
	// this flight waits too — but it is doing no device I/O while it waits,
	// so it does not hold the foreground-in-flight signal up itself.
	if err := o.dev.AwaitMaintenanceTurn(ctx); err != nil {
		return err
	}
	if !o.merger.CanStageMerges() {
		// Direct call, not through mergeFlight: this goroutine already
		// holds the combination's flight slot.
		return o.runMergeStep(ctx, key, ordered)
	}
	clock := simdisk.PhaseClock(ctx, o.dev)

	// The futility memo for a no-op outcome uses the epoch from before the
	// prepare stage: if anything (a racing refinement of another region)
	// advances the layout mid-stage, the stale mark makes the next query
	// re-attempt rather than wedge the combination.
	epochBefore := o.layoutEpoch.Load()

	o.mu.RLock()
	for _, ds := range ordered {
		if o.trees[ds] == nil {
			o.mu.RUnlock()
			return nil
		}
	}
	for _, ds := range ordered {
		o.treeMu[ds].RLock()
	}
	o.statsMu.Lock()
	candidates := o.stats.Partitions(key)
	o.statsMu.Unlock()
	t0 := clock()
	prep, prepErr := o.merger.PrepareMerge(ctx, key, ordered, candidates, o.trees)
	dt := clock() - t0
	for i := len(ordered) - 1; i >= 0; i-- {
		o.treeMu[ordered[i]].RUnlock()
	}
	o.mu.RUnlock()
	if prep == nil && prepErr != nil {
		return prepErr
	}

	// Publish even after a prepare error: like the synchronous step, the
	// entries staged before the failure are kept (their pages are already
	// written — dropping them would leak unreachable space in a live merge
	// file). Futility is memoized only on a clean no-op: a failed prepare
	// saw an incomplete picture, so the next query must re-attempt.
	o.mu.Lock()
	t1 := clock()
	appended := o.merger.PublishMerge(prep)
	evicted, err := o.merger.EnforceBudget()
	dt += clock() - t1
	bumped := false
	if err == nil {
		if appended > 0 || len(evicted) > 0 {
			o.bumpLayoutEpoch()
			bumped = true
		}
		o.statsMu.Lock()
		if appended == 0 && prepErr == nil {
			o.futile[key] = futileMark{candidates: len(candidates), epoch: epochBefore}
		} else {
			delete(o.futile, key)
		}
		for _, combo := range evicted {
			delete(o.futile, combo)
			o.stats.Reset(combo)
		}
		o.statsMu.Unlock()
	}
	o.mu.Unlock()
	if bumped && o.maint != nil {
		// See runMergeStep: newly covered cells void their pending
		// refinement demands.
		o.maint.PruneCoveredRefines(o.regionCovered)
	}
	if err == nil {
		err = prepErr
	}
	if err != nil {
		return err
	}
	o.statsMu.Lock()
	o.phases.MergeWrites += dt
	o.statsMu.Unlock()
	return nil
}

// AsyncMaintenance reports whether the background maintenance pipeline is
// on.
func (o *Odyssey) AsyncMaintenance() bool { return o.maint != nil }

// ShareScans reports whether cross-query work sharing is on.
func (o *Odyssey) ShareScans() bool { return o.scans != nil }

// CacheResults reports whether the epoch-scoped result cache is on.
func (o *Odyssey) CacheResults() bool { return o.rcache != nil }

// CacheStats snapshots the result-cache ledger (all zero when
// Config.CacheResults is off).
func (o *Odyssey) CacheStats() CacheStats {
	if o.rcache == nil {
		return CacheStats{}
	}
	return o.rcache.Stats()
}

// SharingStats snapshots the engine-layer scan-sharing counters (all zero
// when Config.ShareScans is off). The device-layer counters (coalesced run
// reads, pages saved) are in the storage Stats.
func (o *Odyssey) SharingStats() SharingStats {
	if o.scans == nil {
		return SharingStats{}
	}
	return o.scans.Stats()
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
// every task succeeded or maintenance is synchronous. It is the
// compatibility accessor over the bounded failure ring — MaintenanceHealth
// returns the full history, the quarantine list and the retry state.
func (o *Odyssey) MaintenanceErr() error {
	if o.maint == nil {
		return nil
	}
	return o.maint.Err()
}

// MaintenanceHealth snapshots the background pipeline's structured health
// ledger: the bounded failure history, the currently quarantined units, and
// how many failed tasks are waiting out a retry backoff. Zero when
// maintenance is synchronous.
func (o *Odyssey) MaintenanceHealth() MaintenanceHealth {
	if o.maint == nil {
		return MaintenanceHealth{}
	}
	return o.maint.Health()
}

// Unquarantine re-admits one quarantined maintenance unit (operator
// recovery after replacing a bad device, say), clearing its failure streak.
// Returns whether the unit was quarantined.
func (o *Odyssey) Unquarantine(q QuarantinedCell) bool {
	if o.maint == nil {
		return false
	}
	return o.maint.Unquarantine(q)
}

// SetMaintenancePaused freezes (true) or thaws (false) background task
// pickup; queued work stays queued while paused. The brownout controller
// uses it to shed maintenance load during fault storms. A no-op when
// maintenance is synchronous.
func (o *Odyssey) SetMaintenancePaused(paused bool) {
	if o.maint != nil {
		o.maint.SetPaused(paused)
	}
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
// identical strings — the async-vs-sync equivalence tests and the bench's
// convergence check compare layouts through it. Meaningful on a quiescent
// engine; safe (but racy in content) while queries run.
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
