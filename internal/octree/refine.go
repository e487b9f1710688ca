package octree

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"spaceodyssey/internal/geom"
	"spaceodyssey/internal/object"
	"spaceodyssey/internal/pagefile"
	"spaceodyssey/internal/simdisk"
)

// NeedsRefinement applies the paper's rt rule: a partition hit by a query of
// volume qVol is refined when Vp/Vq > rt, it still holds objects, and the
// depth bound has not been reached.
func (t *Tree) NeedsRefinement(p *Partition, qVol float64) bool {
	if !p.IsLeaf() || p.count == 0 || int(p.key.Level) >= t.cfg.MaxDepth {
		return false
	}
	if qVol <= 0 {
		return false
	}
	return p.box.Volume()/qVol > t.cfg.RefinementThreshold
}

// refineCtx splits leaf p into ppl children, reassigning its objects by
// center and rewriting them in place: children reuse p's pages first and
// overflow is appended at end of file, exactly as §3.1.2 describes. The
// objects come from RefineSource when it has them, or else are read into
// scratch (a slice from pagefile.GetObjSlice that only the caller sees); they
// are returned — read-only, valid until scratch is next used — so callers
// answering a query can filter them without a second read. Cancellation is
// limited to the read phase: aborting while the partition is being read
// leaves it exactly as it was (runs and children untouched), while the
// split-and-rewrite phase always runs to completion so the tree can never
// hold a half-rewritten partition. This is the "check cancellation between
// level steps, never inside a layout mutation" rule the concurrent storm
// tests pin down.
func (t *Tree) refineCtx(ctx context.Context, p *Partition, scratch *[]object.Object) ([]object.Object, error) {
	if !p.IsLeaf() {
		return nil, fmt.Errorf("octree: refine on non-leaf %v", p.key)
	}
	var objs []object.Object
	var ok bool
	if t.RefineSource != nil {
		objs, ok = t.RefineSource(p)
	}
	if !ok {
		var err error
		if objs, err = t.ReadPartitionIntoCtx(ctx, (*scratch)[:0], p); err != nil {
			return nil, fmt.Errorf("octree refine read: %w", err)
		}
		*scratch = objs // only a device read goes into the caller's scratch
	}
	sp := pagefile.GetObjSlice()
	defer pagefile.PutObjSlice(sp)
	slab := slices.Grow((*sp)[:0], len(objs))[:len(objs)]
	*sp = slab
	bp := int32Pool.Get().(*[]int32)
	bounds := BucketByCell((*bp)[:0], p.box, t.k, objs, slab)
	defer putInt32s(bp, bounds, 0)
	// The parent's pages become the free pool its children draw from in
	// order.
	if err := t.split(ctx, p, slab, nil, bounds, p.runs); err != nil {
		return nil, fmt.Errorf("octree refine write: %w", err)
	}
	p.runs = nil
	t.numLeaves += len(p.children) - 1
	t.Refinements++
	return objs, nil
}

// NeedsWrite reports whether answering q could mutate the tree: either the
// level-0 build has not run yet, or some leaf the (extended) query window
// hits qualifies for refinement. servedElsewhere, when non-nil, mirrors
// QueryIntoCtx's serveFromStore hook: leaves it claims are served from a
// merge file are neither read nor refined by the query (§3.2.2), so they do
// not count as pending writes — without this, a partition merged before
// converging would keep the exclusive lock engaged on every query forever.
// Concurrent callers use NeedsWrite to decide between a shared and an
// exclusive tree lock before querying; it performs no I/O, and the
// predicate must be read-only. A false answer is stable for as long as the
// caller excludes writers, since only EnsureBuiltCtx and a refining
// QueryIntoCtx build or refine.
func (t *Tree) NeedsWrite(q geom.Box, servedElsewhere func(*Partition) bool) bool {
	if !t.Built() {
		return true
	}
	qVol := q.Volume()
	sp, leaves := t.scratchLeaves(q.Expand(t.maxExtent))
	defer putLeafScratch(sp, leaves)
	for _, leaf := range leaves {
		if servedElsewhere != nil && servedElsewhere(leaf) {
			continue
		}
		if t.NeedsRefinement(leaf, qVol) {
			return true
		}
	}
	return false
}

// QueryResult carries the outcome of a single-tree range query.
type QueryResult struct {
	// Objects are the dataset's objects intersecting the query range.
	Objects []object.Object
	// Touched lists the leaf partitions (post-refinement) the query hit.
	Touched []*Partition
	// Refined is the number of refinement operations the query triggered.
	Refined int
	// WantRefine lists, after a read-only walk (QueryReadOnlyCtx), the keys
	// of leaves that qualified for refinement but were served as-is. The
	// caller schedules their refinement asynchronously.
	WantRefine []Key
	// RefineTime and ReadTime break the simulated cost of this query down
	// by phase: refinement I/O and partition reads. (The level-0 build is
	// EnsureBuiltCtx, timed by its caller.)
	RefineTime time.Duration
	ReadTime   time.Duration
	// Tested counts the objects the walk tested against q: its filter's
	// input, of which the objects appended to Objects are the output.
	Tested int
}

// QueryReadOnlyCtx answers q strictly from the current layout: the tree must
// already be built, and nothing is built or refined — the walk takes no
// write intent whatsoever, so concurrent callers can run it under a shared
// tree lock. Leaves that qualify for refinement under the rt rule are served
// as-is and reported in res.WantRefine, for the caller to hand to an
// asynchronous maintenance scheduler. It is QueryIntoCtx with a nil dst and
// touched and refine off, kept as the name the benchmark's octree layer calls.
func (t *Tree) QueryReadOnlyCtx(ctx context.Context, q geom.Box, serveFromStore func(*Partition) bool) (QueryResult, error) {
	return t.QueryIntoCtx(ctx, nil, nil, q, serveFromStore, false)
}

// QueryIntoCtx runs a range query against this tree alone: it locates the
// hit partitions via the extended query window and appends the intersecting
// objects to dst (res.Objects is the extended dst), so a caller can
// accumulate one result over several trees, and the leaves it hit to touched
// (res.Touched is the extended touched), grown once to the walk's leaf count:
// a caller's scratch with room costs no allocation. The tree must already be
// built (EnsureBuiltCtx).
//
// serveFromStore, when non-nil, lets the caller intercept a partition: if it
// returns true the partition's objects are assumed served elsewhere (e.g.
// from a merge file) — it is neither read, refined nor reported in
// WantRefine here (merged partitions are not refined, §3.2.2). The core
// engine uses this hook to route partitions to merge files.
//
// refine selects the single decision a refining and a read-only walk differ
// in, taken on a leaf that qualifies for refinement: refine it now, by at
// most one level (the paper's one-level-per-query rule), and answer from the
// objects the refinement read (the caller holds the tree's write lock), or
// serve it as-is and report its key in WantRefine.
//
// The context is checked before each partition read or refinement and inside
// the reads themselves down to the page boundary, so an abandoned query stops
// charging simulated I/O almost immediately. Refinements that already started
// always complete (see refineCtx), keeping the tree consistent; on error the
// partial QueryResult must be discarded.
//
// Phase times are exact per-query attribution when the context carries a
// QoS scope (any topology); the device-clock fallback is exact only for a
// serial caller on C=1 D=1.
func (t *Tree) QueryIntoCtx(ctx context.Context, dst []object.Object, touched []*Partition, q geom.Box,
	serveFromStore func(*Partition) bool, refine bool) (QueryResult, error) {
	res := QueryResult{Objects: dst, Touched: touched}
	if !t.Built() {
		return res, fmt.Errorf("octree: query on unbuilt tree")
	}
	// Every read nobody else can see — a refinement's source, a leaf read
	// with no ShareReader — decodes into this one slice, filtered before the
	// next read reuses it.
	scratch := pagefile.GetObjSlice()
	defer pagefile.PutObjSlice(scratch)
	clock := simdisk.PhaseClock(ctx, t.file.Device())
	extended := q.Expand(t.maxExtent)
	qVol := q.Volume()
	// The walk's own leaf list is pooled scratch and never escapes; Touched,
	// which does, is the caller's (a refining walk can outgrow it: a refined
	// leaf is replaced by the children the window hits).
	sp, leaves := t.scratchLeaves(extended)
	defer putLeafScratch(sp, leaves)
	res.Touched = slices.Grow(res.Touched, len(leaves))
	for _, leaf := range leaves {
		if serveFromStore != nil && serveFromStore(leaf) {
			res.Touched = append(res.Touched, leaf)
			continue
		}
		if err := simdisk.CheckCtx(ctx); err != nil {
			return res, err
		}
		if t.NeedsRefinement(leaf, qVol) {
			if refine {
				// Refinement reads the partition; reuse those objects and
				// descend to the children actually intersecting the query.
				t1 := clock.Now()
				objs, err := t.refineCtx(ctx, leaf, scratch)
				res.RefineTime += clock.Now() - t1
				if err != nil {
					return res, err
				}
				res.Refined++
				for i := range leaf.children {
					if c := &leaf.children[i]; c.box.Intersects(extended) {
						res.Touched = append(res.Touched, c)
					}
				}
				res.Tested += len(objs)
				res.Objects = object.AppendIntersecting(res.Objects, objs, q)
				continue
			}
			res.WantRefine = append(res.WantRefine, leaf.key)
		}
		t1 := clock.Now()
		objs, err := t.readLeaf(ctx, leaf, scratch)
		res.ReadTime += clock.Now() - t1
		if err != nil {
			return res, err
		}
		res.Touched = append(res.Touched, leaf)
		// Objects are values: objs (pooled scratch, or shared with concurrent
		// queries) is not retained.
		res.Tested += len(objs)
		res.Objects = object.AppendIntersecting(res.Objects, objs, q)
	}
	return res, nil
}

// leafScratchPool recycles the leaf lists of the query path's walks, which
// are done with them when they return, so a walk allocates nothing.
var leafScratchPool = sync.Pool{New: func() any { return new([]*Partition) }}

// maxPooledLeaves is the pool's retention bound: a walk that hit more leaves
// (a whole-volume window over a deep tree) leaves its list to the collector.
const maxPooledLeaves = 1 << 12

// scratchLeaves is Lookup into pooled scratch, on a built tree; the caller
// hands both results to putLeafScratch when it is done with the leaves.
func (t *Tree) scratchLeaves(area geom.Box) (*[]*Partition, []*Partition) {
	sp := leafScratchPool.Get().(*[]*Partition)
	return sp, t.appendLeaves((*sp)[:0], t.root, area)
}

// putLeafScratch returns a walk's leaf list to the pool, cleared so that the
// pool keeps no tree alive.
func putLeafScratch(sp *[]*Partition, leaves []*Partition) {
	if cap(leaves) > maxPooledLeaves {
		return
	}
	clear(leaves)
	*sp = leaves[:0]
	leafScratchPool.Put(sp)
}

// readLeaf is the one leaf read of the query path; the only thing that
// varies is where the destination comes from. With a ShareReader installed
// the result may outlive the query (a result cache retains it, concurrent
// queries attach to it), so it is one fresh slice of exactly the partition's
// size, immutable afterwards. Otherwise nobody else can see it: it decodes
// into the walk's pooled scratch and is valid until the next read.
func (t *Tree) readLeaf(ctx context.Context, p *Partition, scratch *[]object.Object) ([]object.Object, error) {
	if t.ShareReader != nil {
		return t.ShareReader(ctx, p, func(ctx context.Context) ([]object.Object, error) {
			return t.ReadPartitionIntoCtx(ctx, nil, p)
		})
	}
	objs, err := t.ReadPartitionIntoCtx(ctx, (*scratch)[:0], p)
	if err != nil {
		return nil, err
	}
	*scratch = objs
	return objs, nil
}

// RefineRegionStep performs at most one refinement toward the convergence
// of the region under key for the query window that demanded it: the first
// leaf under key that intersects the (extended) window and whose volume
// still exceeds rt times qVol is refined. It reports whether a refinement
// happened — false means the region has converged for this demand. The
// caller must hold the tree's write lock; a background scheduler calls it
// in a lock-release loop so queries interleave between steps instead of
// waiting out a whole region's convergence. The context carries the
// caller's QoS scope — the maintenance scheduler's refinement
// I/O is charged as PriMaintenance through it.
func (t *Tree) RefineRegionStep(ctx context.Context, key Key, q geom.Box, qVol float64) (bool, error) {
	if !t.Built() {
		return false, nil
	}
	stack := t.AppendLeavesUnder(nil, key)
	if len(stack) == 0 {
		// The tree is coarser than the key here (it cannot un-refine, but a
		// caller may schedule conservatively): the covering leaf owns the
		// cell.
		if leaf := t.LeafCovering(key); leaf != nil {
			stack = []*Partition{leaf}
		}
	}
	extended := q.Expand(t.maxExtent)
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !p.IsLeaf() || !p.box.Intersects(extended) || !t.NeedsRefinement(p, qVol) {
			continue
		}
		scratch := pagefile.GetObjSlice()
		defer pagefile.PutObjSlice(scratch)
		_, err := t.refineCtx(ctx, p, scratch)
		return err == nil, err
	}
	return false, nil
}

// TargetLevels returns the number of refinement levels (queries hitting the
// partition) needed before a level-0 partition of volume vp converges for
// queries of volume vq: log_ppl(vp / (vq * rt)), the paper's convergence
// equation (§3.1.2).
func (t *Tree) TargetLevels(vp, vq float64) int {
	if vp <= 0 || vq <= 0 {
		return 0
	}
	ratio := vp / (vq * t.cfg.RefinementThreshold)
	if ratio <= 1 {
		return 0
	}
	levels := 0
	ppl := float64(t.cfg.PartitionsPerLevel)
	for ratio > 1 {
		ratio /= ppl
		levels++
	}
	return levels
}

// LeafCovering returns the leaf whose cell contains the given key's cell
// (the leaf at key itself, or an ancestor when the tree is coarser there).
// It returns nil when the tree is unbuilt or refined *past* the key — then
// no single leaf covers the cell.
func (t *Tree) LeafCovering(key Key) *Partition {
	if !t.Built() || key.Level == 0 {
		return nil
	}
	if p := t.descend(key); p.IsLeaf() {
		return p // at the key, or coarser: this leaf covers the cell
	}
	return nil // refined deeper than key
}

// AppendLeavesUnder appends every leaf whose cell lies inside the given
// key's cell (including a leaf exactly at the key) to dst. The coarsest-cover
// merge strategy reads them all to build one segment.
func (t *Tree) AppendLeavesUnder(dst []*Partition, key Key) []*Partition {
	if !t.Built() {
		return dst
	}
	start := t.descend(key)
	if start.key.Level < key.Level {
		return dst // tree coarser than the key: nothing strictly under it
	}
	return appendSubtreeLeaves(dst, start)
}

// appendSubtreeLeaves appends every leaf under p, in child order, to dst.
func appendSubtreeLeaves(dst []*Partition, p *Partition) []*Partition {
	if p.IsLeaf() {
		return append(dst, p)
	}
	for i := range p.children {
		dst = appendSubtreeLeaves(dst, &p.children[i])
	}
	return dst
}

// runAllocator hands out pages from a free pool of runs in order.
type runAllocator struct {
	free []pagefile.Run
}

// take removes up to n pages from the pool and appends them as runs to dst.
func (a *runAllocator) take(dst []pagefile.Run, n int64) []pagefile.Run {
	for n > 0 && len(a.free) > 0 {
		r := &a.free[0]
		if r.Count <= n {
			dst = append(dst, *r)
			n -= r.Count
			a.free = a.free[1:]
			continue
		}
		dst = append(dst, pagefile.Run{Start: r.Start, Count: n})
		r.Start += n
		r.Count -= n
		n = 0
	}
	return dst
}
