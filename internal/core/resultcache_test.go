package core

import (
	"context"
	"slices"
	"sync/atomic"
	"testing"

	"spaceodyssey/internal/datagen"
	"spaceodyssey/internal/engine"
	"spaceodyssey/internal/geom"
	"spaceodyssey/internal/object"
	"spaceodyssey/internal/octree"
)

// TestResultCacheExactHitAndEpochDrop pins the cache's key contract: an
// insert answers a lookup of its key (a cached empty cell included) for as
// long as it is cached — across layout-epoch advances, another dataset's
// refinement of the same cell and its own dataset's refinement elsewhere —
// and an insert whose read began at an epoch that is no longer current (it
// raced a publish) is dropped, not kept. A refinement below a cached cell
// removes exactly that cell: its sibling stays an exact hit.
func TestResultCacheExactHitAndEpochDrop(t *testing.T) {
	var epoch atomic.Int64
	epoch.Store(5)
	c := newResultCache(geom.UnitBox(), 100, &epoch)
	cell := testKeyAt(1, 0, 0, 0)
	objs := []object.Object{{ID: 1, Dataset: 3}, {ID: 2, Dataset: 3}}

	c.Insert(3, cell, nil, 5, cellContent{objs: objs})
	got, ok := c.Lookup(3, cell, nil)
	if !ok || len(got.objs) != 2 {
		t.Fatalf("Lookup = %v, %v; want the 2 inserted objects", got, ok)
	}

	// A cached empty cell is a hit, not a miss — ok carries the answer.
	empty := testKeyAt(1, 1, 0, 0)
	c.Insert(3, empty, nil, 5, cellContent{})
	if got, ok := c.Lookup(3, empty, nil); !ok || len(got.objs) != 0 {
		t.Fatalf("cached empty cell: Lookup = %v, %v; want [], true", got, ok)
	}

	// The layout moves on: the epoch advances, and refinements drop the cells
	// they split and their ancestors — in another dataset the same cell, in
	// this one a cell elsewhere.
	epoch.Add(1)
	c.DropKeys(splitCells(4, 2, []octree.Key{cell}))
	c.DropKeys(splitCells(3, 2, []octree.Key{testKeyAt(2, 3, 3, 3)}))
	if got, ok := c.Lookup(3, cell, nil); !ok || len(got.objs) != 2 {
		t.Fatalf("after an epoch advance and unrelated drops: Lookup = %v, %v; want the 2 objects", got, ok)
	}

	// A read that began at epoch 5 raced the publish: it is not kept, neither
	// as a new entry nor over a current one.
	raced := testKeyAt(1, 0, 1, 0)
	c.Insert(3, raced, nil, 5, cellContent{objs: objs[:1]})
	if _, ok := c.Lookup(3, raced, nil); ok {
		t.Fatal("a read that raced a publish was kept")
	}
	c.Insert(3, cell, nil, 5, cellContent{})
	if got, ok := c.Lookup(3, cell, nil); !ok || len(got.objs) != 2 {
		t.Fatalf("a raced read replaced a current entry: Lookup = %v, %v", got, ok)
	}

	st := c.Stats()
	if st.Hits != 4 || st.Misses != 1 || st.Inserts != 2 {
		t.Fatalf("ledger = %+v, want 4 hits / 1 miss / 2 inserts", st)
	}
	if st.Entries != 2 || st.CachedObjects != 2 || st.Invalidations != 0 {
		t.Fatalf("entries/objects/invalidations = %d/%d/%d, want 2/2/0 (the drops removed nothing)",
			st.Entries, st.CachedObjects, st.Invalidations)
	}

	// Dataset 3 is refined below the cell: the cell goes, its sibling stays.
	c.DropKeys(splitCells(3, 2, []octree.Key{testKeyAt(2, 1, 1, 1)}))
	if _, ok := c.Lookup(3, cell, nil); ok {
		t.Fatal("a cell refined below is still cached")
	}
	if _, ok := c.Lookup(3, empty, nil); !ok {
		t.Fatal("the refinement below a cell dropped its sibling")
	}
}

// TestResultCacheEvictsColdestFirst pins heat-aware eviction: when capacity
// overflows, the entry with the fewest hits goes first and hot entries
// survive; an entry bigger than the whole budget is never admitted.
func TestResultCacheEvictsColdestFirst(t *testing.T) {
	c := newResultCache(geom.UnitBox(), 4, new(atomic.Int64))
	a, b, cc := testKeyAt(2, 0, 0, 0), testKeyAt(2, 1, 0, 0), testKeyAt(2, 2, 0, 0)
	two := []object.Object{{ID: 1}, {ID: 2}}

	c.Insert(0, a, nil, 0, cellContent{objs: two})
	c.Insert(0, b, nil, 0, cellContent{objs: two})
	c.Lookup(0, a, nil) // heat a above b
	c.Insert(0, cc, nil, 0, cellContent{objs: two})

	if _, ok := c.Lookup(0, b, nil); ok {
		t.Fatal("coldest entry survived eviction")
	}
	if _, ok := c.Lookup(0, a, nil); !ok {
		t.Fatal("hot entry was evicted instead of the coldest")
	}
	if _, ok := c.Lookup(0, cc, nil); !ok {
		t.Fatal("freshly inserted entry missing")
	}
	st := c.Stats()
	if st.Evictions != 1 || st.CachedObjects != 4 {
		t.Fatalf("evictions/objects = %d/%d, want 1/4", st.Evictions, st.CachedObjects)
	}

	// An oversized scan must not flush the whole cache just to fail to fit.
	five := make([]object.Object, 5)
	c.Insert(0, testKeyAt(2, 3, 0, 0), nil, 0, cellContent{objs: five})
	if _, ok := c.Lookup(0, testKeyAt(2, 3, 0, 0), nil); ok {
		t.Fatal("entry larger than the whole budget was admitted")
	}
	if st := c.Stats(); st.Entries != 2 {
		t.Fatalf("oversized insert disturbed the cache: %d entries, want 2", st.Entries)
	}
}

// TestResultCacheInvalidateCountsOnlyFlushes pins the Invalidations
// semantics: a flush or a targeted drop that removes nothing is a no-op and
// is not counted; one that removes something counts once, however much it
// removed.
func TestResultCacheInvalidateCountsOnlyFlushes(t *testing.T) {
	c := newResultCache(geom.UnitBox(), 100, new(atomic.Int64))
	c.Invalidate()
	if st := c.Stats(); st.Invalidations != 0 {
		t.Fatalf("empty-cache invalidate counted: %d", st.Invalidations)
	}
	one := []object.Object{{ID: 1}}
	c.Insert(0, testKeyAt(1, 0, 0, 0), nil, 0, cellContent{objs: one})
	c.Invalidate()
	st := c.Stats()
	if st.Invalidations != 1 {
		t.Fatalf("Invalidations = %d, want 1", st.Invalidations)
	}
	if st.Entries != 0 || st.CachedObjects != 0 {
		t.Fatalf("invalidate left entries behind: %+v", st)
	}
	c.Invalidate()
	if st := c.Stats(); st.Invalidations != 1 {
		t.Fatalf("second empty invalidate counted: %d", st.Invalidations)
	}

	for ds := object.DatasetID(0); ds < 2; ds++ {
		c.Insert(ds, testKeyAt(1, 0, 0, 0), nil, 0, cellContent{objs: one})
		c.Insert(ds, testKeyAt(1, 1, 0, 0), nil, 0, cellContent{objs: one})
	}
	c.DropKeys(splitCells(2, 2, []octree.Key{testKeyAt(1, 0, 0, 0)}))
	c.DropKeys(slices.Values([]scanKey{{ds: 2, cell: testKeyAt(1, 0, 0, 0)}}))
	if st := c.Stats(); st.Invalidations != 1 || st.Entries != 4 {
		t.Fatalf("drops that removed nothing: %d invalidations, %d entries; want 1, 4", st.Invalidations, st.Entries)
	}
	c.DropKeys(slices.Values([]scanKey{{ds: 0, cell: testKeyAt(1, 0, 0, 0)}, {ds: 1, cell: testKeyAt(1, 0, 0, 0)}}))
	c.DropKeys(splitCells(0, 2, []octree.Key{testKeyAt(2, 2, 0, 0)})) // a child of {1 1 0 0}
	if st := c.Stats(); st.Invalidations != 3 || st.Entries != 1 {
		t.Fatalf("two drops that removed entries: %d invalidations, %d entries; want 3, 1", st.Invalidations, st.Entries)
	}
}

// TestPublishDropsOnlyWhatItChanged drives an inline-maintenance engine with
// the result cache on through the two publishes that change cells, and holds
// what each may drop. A refinement drops only the cells it split and their
// cached ancestors: another dataset's cached cells, and the refined
// dataset's cells elsewhere, stay cached, and re-querying them reads nothing
// from the device — a window inside a kept cell refines it from the cache. A merge publish leaves the cells of a dataset outside the
// combination cached, and hands the cache the keys it published with a child
// directory: a key cached before is either gone or holds exactly what a read
// of its segment returns, objects in order and directory, and the next read
// of a key that is gone carries the directory too; the keys of one-page
// segments, which hold what the cache held in the same order, stay cached.
// Every answer is checked against a brute-force scan.
func TestPublishDropsOnlyWhatItChanged(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CacheResults = true
	eng, raws, dev := testSetup(t, 4, 16000, 57, cfg)
	oracle := engine.NewNaiveScan(raws)
	q := geom.Cube(geom.V(0.5, 0.5, 0.5), 0.3)
	reads := func() int64 { st := dev.Stats(); return st.PageReads + st.CacheHits }
	// ask answers one query, and reports how many pages the engine read for
	// it (the scan behind the oracle shares the device).
	ask := func(q geom.Box, dss ...object.DatasetID) int64 {
		t.Helper()
		before := reads()
		got, err := eng.Query(q, dss)
		if err != nil {
			t.Fatal(err)
		}
		pages := reads() - before
		want, err := oracle.Query(q, dss)
		if err != nil {
			t.Fatal(err)
		}
		if !engine.SameObjects(got, want) {
			t.Fatalf("%v over %v: %d objects, the brute-force scan %d", q, dss, len(got), len(want))
		}
		return pages
	}
	// settle queries dss until a query changes no layout, so that its cells
	// are all cached.
	settle := func(q geom.Box, dss ...object.DatasetID) {
		t.Helper()
		for i := 0; ; i++ {
			epoch := eng.layoutEpoch.Load()
			ask(q, dss...)
			if eng.layoutEpoch.Load() == epoch {
				return
			}
			if i == 20 {
				t.Fatalf("%v still changes the layout after 20 queries", dss)
			}
		}
	}
	// cached holds that re-querying dss is answered from the cache alone.
	cached := func(step string, q geom.Box, dss ...object.DatasetID) {
		t.Helper()
		zero := eng.CacheStats().ZeroReadQueries
		pages := ask(q, dss...)
		if got := eng.CacheStats().ZeroReadQueries - zero; got != 1 || pages != 0 {
			t.Fatalf("%s: re-querying %v was %d zero-read queries and read %d pages; want 1 and none",
				step, dss, got, pages)
		}
	}

	settle(q, 0)
	cached("settled", q, 0)
	// Dataset 1's level-0 build, its cells cached around one of its objects
	// away from q, where the merge below takes the level-0 cells, and
	// refinements of some of them.
	var far geom.Vec
	for _, o := range datagen.GenerateDatasets(datagen.Config{Seed: 57, NumObjects: 16000, Clusters: 6}, 2)[1] {
		if !q.Expand(geom.Splat(0.2)).Intersects(geom.Box{Min: o.Center, Max: o.Center}) {
			far = o.Center
			break
		}
	}
	wide := geom.Cube(far, 0.15)
	settle(wide, 1)
	tree := eng.trees[1]
	var before []octree.Key
	for key := range eng.rcache.entries {
		if key.ds == 1 {
			before = append(before, key.cell)
		}
	}
	refinements := eng.Metrics().Refinements
	ask(geom.Cube(far, 0.02), 1)
	if eng.Metrics().Refinements == refinements {
		t.Fatal("the query on dataset 1 refined nothing")
	}
	cached("after dataset 1 was refined", q, 0)
	// Every cell of dataset 1 cached before the refinement that is still a
	// leaf is still cached; every cached cell of dataset 1 is a leaf: the
	// split cells and any ancestor of them are gone.
	split, kept := 0, 0
	for _, cell := range before {
		_, ok := eng.rcache.entries[scanKey{ds: 1, cell: cell}]
		switch leaf := tree.LeafAt(cell) != nil; {
		case leaf && !ok:
			t.Fatalf("dataset 1's cell %v is still a leaf, and the refinement dropped it", cell)
		case leaf:
			kept++
		default:
			split++
		}
	}
	for key := range eng.rcache.entries {
		if key.ds == 1 && tree.LeafAt(key.cell) == nil {
			t.Fatalf("dataset 1's cached cell %v is no leaf since the refinement", key.cell)
		}
	}
	if split == 0 || kept == 0 {
		t.Fatalf("of dataset 1's %d cached cells the refinement split %d and kept %d; want some of each", len(before), split, kept)
	}
	// A window inside a kept leaf: the walk refines the leaf from its cached
	// cell and answers from the objects the refinement took, so it reads no
	// page. It is not a zero-read query: the refinement writes its children.
	for _, cell := range before {
		if p := tree.LeafAt(cell); p != nil && p.Count() > 0 {
			box := p.Box()
			zero, refinements := eng.CacheStats().ZeroReadQueries, eng.Metrics().Refinements
			pages := ask(geom.BoxFromCenter(box.Center(), box.Size().Mul(0.1)), 1)
			if pages != 0 || eng.Metrics().Refinements == refinements || eng.CacheStats().ZeroReadQueries != zero {
				t.Fatalf("a window inside kept leaf %v read %d pages, refined %d leaves and counted %d zero-read queries; want none, some and none",
					cell, pages, eng.Metrics().Refinements-refinements, eng.CacheStats().ZeroReadQueries-zero)
			}
			break
		}
	}

	settle(q, 3)
	merged := []object.DatasetID{0, 1, 2}
	for eng.merger.file(KeyOf(merged)) == nil {
		ask(q, merged...)
		if eng.Metrics().Queries > 60 {
			t.Fatal("the combination never merged")
		}
	}
	cached("after the merge published", q, 3)

	// Every key the publish gave a directory is either gone or holds what a
	// read of its segment returns, and the one-page segments' keys, whose
	// cells the cache already held in the segment's order, stay cached:
	// re-querying one of those cells reads nothing.
	mf := eng.merger.file(KeyOf(merged))
	var onePage []octree.Key
	grouped := 0
	for _, cell := range mf.EntryKeys() {
		whole := true // every member's segment is one page, and cached
		for _, ds := range merged {
			key := scanKey{ds: ds, cell: cell}
			it, kept := eng.rcache.entries[key]
			one := mf.entries[key].children == nil
			if !one && kept {
				want, err := eng.merger.ReadSegmentCtx(context.Background(), nil, mf, cell, ds)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(it.content().objs, want.objs) || !slices.Equal(it.content().children, want.children) {
					t.Fatalf("published key %v is cached with %d objects and directory %v, not its segment's %d objects and %v",
						key, len(it.content().objs), it.content().children, len(want.objs), want.children)
				}
				grouped++
			}
			whole = whole && one && kept
		}
		if whole {
			onePage = append(onePage, cell)
		}
	}
	if grouped == 0 {
		t.Fatal("the merge kept no published cell with a directory cached")
	}
	if len(onePage) == 0 {
		t.Fatal("the merge kept no published cell of one-page segments cached")
	}
	cell := EntryBox(geom.UnitBox(), onePage[0], 4)
	cached("a one-page published cell", geom.BoxFromCenter(cell.Center(), cell.Size().Mul(0.1)), merged...)

	ask(q, merged...)
	indexed := 0
	for key, seg := range mf.entries {
		if len(seg.children) == 0 {
			continue
		}
		it := eng.rcache.entries[key]
		if it == nil {
			t.Fatalf("the read of published key %v after the merge is not cached", key)
		}
		if !slices.Equal(it.content().children, seg.children) {
			t.Fatalf("the read of published key %v after the merge is cached with directory %v, not the segment's %v",
				key, it.content().children, seg.children)
		}
		indexed++
	}
	if indexed == 0 {
		t.Fatal("the merge published no segment with a child directory")
	}
}

// TestCachedLeafUnderACoarserEntryIsReadOnce: a leaf the result cache holds
// on its own, under a coarser entry of the merge file its combination routes
// to, is answered by that entry's segment — read whole for the leaf's
// siblings, it holds the leaf's objects — and never from its own cached
// cell besides. Dataset 0's level-1 cell is merged with datasets 1 and 2,
// then refined by a query of a combination no merge file serves, whose
// second query caches the children it reads; the merged combination's query
// over them must match a brute-force scan, with no object twice.
func TestCachedLeafUnderACoarserEntryIsReadOnce(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CacheResults = true
	eng, raws, _ := testSetup(t, 4, 8000, 61, cfg)
	oracle := engine.NewNaiveScan(raws)
	q := geom.Cube(geom.V(0.5, 0.5, 0.5), 0.3) // level-1 cells are 4 times its volume at most: none is refined
	merged := []object.DatasetID{0, 1, 2}
	ask := func(q geom.Box, dss []object.DatasetID) []object.Object {
		t.Helper()
		got, err := eng.Query(q, dss)
		if err != nil {
			t.Fatal(err)
		}
		want, err := oracle.Query(q, dss)
		if err != nil {
			t.Fatal(err)
		}
		type id struct {
			ds object.DatasetID
			id uint64
		}
		seen := map[id]bool{}
		for _, o := range got {
			if seen[id{o.Dataset, o.ID}] {
				t.Fatalf("%v over %v returned object %d of dataset %d twice", q, dss, o.ID, o.Dataset)
			}
			seen[id{o.Dataset, o.ID}] = true
		}
		if !engine.SameObjects(got, slices.Clone(want)) {
			t.Fatalf("%v over %v: %d objects, the brute-force scan %d", q, dss, len(got), len(want))
		}
		return got
	}
	for eng.merger.file(KeyOf(merged)) == nil {
		ask(q, merged)
		if eng.Metrics().Queries > 10 {
			t.Fatal("the combination never merged")
		}
	}
	mf := eng.merger.file(KeyOf(merged))
	tree := eng.trees[0]
	fanout := tree.FanoutPerDim()

	// A window around an object of dataset 0 well inside q, in a merged
	// level-1 cell: 72 times smaller than the cell, so the cell is refined,
	// and about its children's volume, so they are not.
	inner := geom.Cube(q.Center(), 0.2)
	var w geom.Box
	var cell octree.Key
	for _, o := range datagen.GenerateDatasets(datagen.Config{Seed: 61, NumObjects: 8000, Clusters: 6}, 1)[0] {
		if !inner.Intersects(geom.Box{Min: o.Center, Max: o.Center}) {
			continue
		}
		leaves := tree.Lookup(geom.Box{Min: o.Center, Max: o.Center})
		if len(leaves) == 1 && leaves[0].Key().Level == 1 && mf.covers(leaves[0].Key(), fanout) {
			w, cell = geom.Cube(o.Center, 0.06), leaves[0].Key()
			break
		}
	}
	if cell.Level == 0 {
		t.Fatal("no object of dataset 0 inside the window lies in a merged level-1 cell")
	}
	unmerged := []object.DatasetID{0, 3} // no merge file serves it, and too small to merge
	ask(w, unmerged)
	if tree.LeafAt(cell) != nil {
		t.Fatalf("the window did not refine dataset 0's cell %v", cell)
	}
	ask(w, unmerged) // reads the children the window meets, and caches them

	// Some of the cell's leaves are cached, one of them holding an answer to
	// q, and some are not: the merged cell's segment is read for those.
	var cachedLeaves, answering int
	leaves := tree.AppendLeavesUnder(nil, cell)
	for _, leaf := range leaves {
		if leaf.Cached() == nil {
			continue
		}
		if entry, _, ok := mf.covering(leaf.Key(), 0, fanout); !ok || entry != cell {
			t.Fatalf("cached leaf %v is served by entry %v (%v), not by the merged cell %v", leaf.Key(), entry, ok, cell)
		}
		cachedLeaves++
		if leaf.Count() > 0 && leaf.Extent().Intersects(q) {
			answering++
		}
	}
	if answering == 0 || cachedLeaves == len(leaves) {
		t.Fatalf("%d of the merged cell's %d leaves are cached, %d of them meeting the query; want some, not all, and one meeting it",
			cachedLeaves, len(leaves), answering)
	}
	fromMerge := eng.Metrics().PartitionsFromMerge
	ask(q, merged)
	if eng.Metrics().PartitionsFromMerge == fromMerge {
		t.Fatal("the merged combination's query read no segment")
	}
}

// TestZeroReadCountsAReadOfAnEmptyCell: a query that reads an uncached cell
// is not served with zero device reads, even when the cell is empty and its
// read touches no page. A small window around an object of dataset 0 is
// asked until it changes no layout, and every cell it meets is cached,
// among them an empty leaf of a refined cell; with that leaf's entry
// dropped, the next query reads it alone, and the one after is zero-read
// again.
func TestZeroReadCountsAReadOfAnEmptyCell(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CacheResults = true
	cfg.DisableMerging = true
	eng, _, dev := testSetup(t, 1, 8000, 61, cfg)
	dss := []object.DatasetID{0}
	tree := eng.trees[0]
	var w geom.Box
	var empty *octree.Partition
	for _, o := range datagen.GenerateDatasets(datagen.Config{Seed: 61, NumObjects: 8000, Clusters: 6}, 1)[0][:20] {
		w = geom.Cube(o.Center, 0.02)
		for i := 0; ; i++ {
			epoch := eng.layoutEpoch.Load()
			if _, err := eng.Query(w, dss); err != nil {
				t.Fatal(err)
			}
			if eng.layoutEpoch.Load() == epoch {
				break
			}
			if i == 20 {
				t.Fatalf("%v still changes the layout after 20 queries", w)
			}
		}
		for _, leaf := range tree.Lookup(w.Expand(tree.MaxExtent())) {
			if leaf.Count() == 0 && leaf.Cached() != nil {
				empty = leaf
				break
			}
		}
		if empty != nil {
			break
		}
	}
	if empty == nil {
		t.Fatal("no window around 20 objects of dataset 0 meets an empty leaf")
	}
	// step asks w once and reports whether it was zero-read, how many cache
	// misses and how many device pages it cost.
	step := func() (zero bool, misses, pages int64) {
		t.Helper()
		st, pg := eng.CacheStats(), dev.Stats()
		if _, err := eng.Query(w, dss); err != nil {
			t.Fatal(err)
		}
		st2, pg2 := eng.CacheStats(), dev.Stats()
		return st2.ZeroReadQueries > st.ZeroReadQueries, st2.Misses - st.Misses,
			pg2.PageReads + pg2.CacheHits - pg.PageReads - pg.CacheHits
	}
	if zero, misses, _ := step(); !zero || misses != 0 {
		t.Fatalf("settled: zero-read %v with %d misses; want a zero-read query and none", zero, misses)
	}
	eng.rcache.DropKeys(slices.Values([]scanKey{{ds: 0, cell: empty.Key()}}))
	if zero, misses, pages := step(); zero || misses != 1 || pages != 0 {
		t.Fatalf("empty leaf %v dropped: zero-read %v with %d misses and %d pages; want one miss, no page, not zero-read",
			empty.Key(), zero, misses, pages)
	}
	if zero, misses, _ := step(); !zero || misses != 0 {
		t.Fatalf("empty leaf read again: zero-read %v with %d misses; want a zero-read query and none", zero, misses)
	}
}
