package core

import (
	"context"

	"spaceodyssey/internal/geom"
	"spaceodyssey/internal/object"
	"spaceodyssey/internal/octree"
	"spaceodyssey/internal/simdisk"
)

// SharingStats counts the work concurrent queries shared: cell reads (with
// the result cache on) and level-0 builds (always single-flight).
type SharingStats struct {
	// AttachedScans is how many cell reads (partitions and merge segments)
	// were answered by attaching to another query's in-flight read of the
	// same (dataset, cell) at the same layout epoch.
	AttachedScans int64
	// SharedBuilds is how many queries waited out another query's in-flight
	// level-0 build instead of herding on the tree's exclusive lock.
	SharedBuilds int64
}

// scanKey identifies one cell: a tree partition or a merge segment of one
// dataset.
type scanKey struct {
	ds   object.DatasetID
	cell octree.Key
}

// flightKey identifies one shareable cell read: a cell as of one layout
// epoch. The epoch is part of the key, so a reader never attaches to a read
// that started before a layout publish (refinement, merge, eviction) — the
// race-mode oracle contract.
type flightKey struct {
	scanKey
	epoch int64
}

// cellContent is the full content of one cell as the read path carries it:
// the objects and, for a merge segment stored grouped on a grid over its
// entry cell — its k³ children, or the (2k)³ grid of a segment of at least
// (2k)³ objects — the directory: children[ci]..children[ci+1] delimit grid
// cell ci's objects, ci in geom.CellGrid order over the entry cell's key box,
// and the directory's length names the grid (see groupByChildren). A tree
// partition, and a merge segment of one page, is in file order with nil
// children and is filtered whole.
//
// The two travel as one value — through readCell, the in-flight reads and
// the result cache — and are never looked up beside each other, because tree
// partitions and merge segments share the (dataset, cell) key space: what
// answers a key may be the other kind's content, read by a query of another
// combination, and only the content knows how it is ordered.
type cellContent struct {
	objs     []object.Object
	children []int32
}

// cellRead performs the device read of one cell: a tree partition or a merge
// segment.
type cellRead = func(context.Context) (cellContent, error)

// readCell is the one cell read of the serving stack, shared by tree
// partitions (through octree.Tree.ShareReader) and merge segments, which live
// in one (dataset, cell) key space — either is the full content of its cell.
// Without the result cache it is the device read itself. With it, the cache
// answers first (an exact hit costs nothing), then the in-flight reads of the
// cell (scan sharing: a read that outlives its query is what the cache
// already pays for), then the device read, whose completed result the cache
// retains for queries that arrive after the read finished. box is the cell's
// region, which the cache keys containment answering on, and part the tree
// partition at cell the read serves, nil when it is not known, which the
// cache marks while it holds the cell. Callers hold the shared layout lock —
// and, for a partition, the dataset's shared tree lock — while publishers
// take them exclusively, so the cell's bytes cannot change under the read or
// its attached waiters. The returned content may be shared with concurrent
// queries and must be treated as read-only.
func (o *Odyssey) readCell(ctx context.Context, ds object.DatasetID, cell octree.Key, part *octree.Partition, box geom.Box, read cellRead) (cellContent, error) {
	// Only the goroutine performing the device read marks its own query's
	// cache scope; queries attached to this read stay clean (they charged no
	// device read).
	device := func() (cellContent, error) {
		missCacheScope(ctx)
		return read(ctx)
	}
	if o.rcache == nil {
		return device()
	}
	// The epoch is loaded before the read: the cache does not keep a read
	// that a layout publish raced (see resultCache.Insert).
	epoch := o.layoutEpoch.Load()
	if c, ok := o.rcache.Lookup(ds, cell); ok {
		return c, nil
	}
	c, err := o.sharedRead(ctx, flightKey{scanKey{ds: ds, cell: cell}, epoch}, device)
	if err == nil {
		o.rcache.Insert(ds, cell, part, epoch, box, c)
	}
	return c, err
}

// sharedRead is the single-flight cell read. A waiter does not inherit a
// failed leader's outcome (its read may have died with its own context, or
// on an injected fault), and the waiters of one do not each fall back to an
// independent read either — N redundant scans, the herd sharing exists to
// prevent: each re-enters the flight, so one of them leads the retry and the
// rest attach to it, the way ensureBuilt's waiters do.
func (o *Odyssey) sharedRead(ctx context.Context, key flightKey, device func() (cellContent, error)) (cellContent, error) {
	for {
		c, attached, err := o.cellFlight.Do(ctx, key, device)
		if !attached {
			return c, err
		}
		if err == nil {
			o.attachedScans.Add(1)
			return c, nil
		}
		if err := simdisk.CheckCtx(ctx); err != nil {
			return cellContent{}, err
		}
	}
}

// bumpLayoutEpoch publishes a layout change: the global epoch advances, so
// no new reader attaches to a pre-publish read and the result cache keeps no
// read that began before it. It drops no cached cell: a cell's content
// depends only on (dataset, cell) — see resultCache — and the publishes that
// make cached cells stale in format drop them after the bump
// (publishRefined, dropMerged).
func (o *Odyssey) bumpLayoutEpoch() {
	o.layoutEpoch.Add(1)
}

// publishRefined publishes refinements of ds: its cached cells may now be
// coarser than its leaves, and are dropped. The refinements may have taken
// their sources from those cells (Odyssey.AddRaw) — read-only, so what the
// drop releases is unchanged.
func (o *Odyssey) publishRefined(ds object.DatasetID) {
	o.bumpLayoutEpoch()
	if o.rcache != nil {
		o.rcache.DropDataset(ds)
	}
}

// dropMerged drops, after the step's epoch bump, the cached cells of the keys
// a merge step published with a child directory: a cached copy may be a
// partition in file order, without the directory. A one-page segment has
// none — it stores, in file order, the cell a cached entry already holds —
// so its key stays cached.
func (o *Odyssey) dropMerged(st *stagedMerge) {
	if o.rcache != nil {
		o.rcache.DropKeys(func(yield func(scanKey) bool) {
			for ref, seg := range st.entries {
				if seg.children != nil && !yield(ref) {
					return
				}
			}
		})
	}
}
