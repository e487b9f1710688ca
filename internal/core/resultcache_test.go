package core

import (
	"math"
	"math/bits"
	"math/rand"
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
// long as it is cached — across layout-epoch advances and drops of other
// datasets and other keys — and an insert whose read began at an epoch that
// is no longer current (it raced a publish) is dropped, not kept.
func TestResultCacheExactHitAndEpochDrop(t *testing.T) {
	var epoch atomic.Int64
	epoch.Store(5)
	c := newResultCache(geom.UnitBox(), 100, &epoch)
	cell := testKeyAt(1, 0, 0, 0)
	region := cell.Box(geom.UnitBox(), 2)
	objs := []object.Object{{ID: 1, Dataset: 3}, {ID: 2, Dataset: 3}}

	c.Insert(3, cell, nil, 5, region, cellContent{objs: objs})
	got, ok := c.Lookup(3, cell)
	if !ok || len(got.objs) != 2 {
		t.Fatalf("Lookup = %v, %v; want the 2 inserted objects", got, ok)
	}

	// A cached empty cell is a hit, not a miss — ok carries the answer.
	empty := testKeyAt(1, 1, 0, 0)
	c.Insert(3, empty, nil, 5, empty.Box(geom.UnitBox(), 2), cellContent{})
	if got, ok := c.Lookup(3, empty); !ok || len(got.objs) != 0 {
		t.Fatalf("cached empty cell: Lookup = %v, %v; want [], true", got, ok)
	}

	// The layout moves on: the epoch advances, and the publish drops another
	// dataset and other keys — one of them the same cell of another dataset.
	epoch.Add(1)
	c.DropDataset(4)
	c.DropKeys(slices.Values([]scanKey{{ds: 3, cell: testKeyAt(1, 1, 1, 1)}, {ds: 4, cell: cell}}))
	if got, ok := c.Lookup(3, cell); !ok || len(got.objs) != 2 {
		t.Fatalf("after an epoch advance and unrelated drops: Lookup = %v, %v; want the 2 objects", got, ok)
	}

	// A read that began at epoch 5 raced the publish: it is not kept, neither
	// as a new entry nor over a current one.
	raced := testKeyAt(1, 0, 1, 0)
	c.Insert(3, raced, nil, 5, raced.Box(geom.UnitBox(), 2), cellContent{objs: objs[:1]})
	if _, ok := c.Lookup(3, raced); ok {
		t.Fatal("a read that raced a publish was kept")
	}
	c.Insert(3, cell, nil, 5, region, cellContent{})
	if got, ok := c.Lookup(3, cell); !ok || len(got.objs) != 2 {
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
}

// TestResultCacheEvictsColdestFirst pins heat-aware eviction: when capacity
// overflows, the entry with the fewest hits goes first and hot entries
// survive; an entry bigger than the whole budget is never admitted.
func TestResultCacheEvictsColdestFirst(t *testing.T) {
	c := newResultCache(geom.UnitBox(), 4, new(atomic.Int64))
	a, b, cc := testKeyAt(2, 0, 0, 0), testKeyAt(2, 1, 0, 0), testKeyAt(2, 2, 0, 0)
	two := []object.Object{{ID: 1}, {ID: 2}}

	c.Insert(0, a, nil, 0, geom.UnitBox(), cellContent{objs: two})
	c.Insert(0, b, nil, 0, geom.UnitBox(), cellContent{objs: two})
	c.Lookup(0, a) // heat a above b
	c.Insert(0, cc, nil, 0, geom.UnitBox(), cellContent{objs: two})

	if _, ok := c.Lookup(0, b); ok {
		t.Fatal("coldest entry survived eviction")
	}
	if _, ok := c.Lookup(0, a); !ok {
		t.Fatal("hot entry was evicted instead of the coldest")
	}
	if _, ok := c.Lookup(0, cc); !ok {
		t.Fatal("freshly inserted entry missing")
	}
	st := c.Stats()
	if st.Evictions != 1 || st.CachedObjects != 4 {
		t.Fatalf("evictions/objects = %d/%d, want 1/4", st.Evictions, st.CachedObjects)
	}

	// An oversized scan must not flush the whole cache just to fail to fit.
	five := make([]object.Object, 5)
	c.Insert(0, testKeyAt(2, 3, 0, 0), nil, 0, geom.UnitBox(), cellContent{objs: five})
	if _, ok := c.Lookup(0, testKeyAt(2, 3, 0, 0)); ok {
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
	c.Insert(0, testKeyAt(1, 0, 0, 0), nil, 0, geom.UnitBox(), cellContent{objs: one})
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
		c.Insert(ds, testKeyAt(1, 0, 0, 0), nil, 0, geom.UnitBox(), cellContent{objs: one})
		c.Insert(ds, testKeyAt(1, 1, 0, 0), nil, 0, geom.UnitBox(), cellContent{objs: one})
	}
	c.DropDataset(2)
	c.DropKeys(slices.Values([]scanKey{{ds: 2, cell: testKeyAt(1, 0, 0, 0)}}))
	if st := c.Stats(); st.Invalidations != 1 || st.Entries != 4 {
		t.Fatalf("drops that removed nothing: %d invalidations, %d entries; want 1, 4", st.Invalidations, st.Entries)
	}
	c.DropKeys(slices.Values([]scanKey{{ds: 0, cell: testKeyAt(1, 0, 0, 0)}, {ds: 1, cell: testKeyAt(1, 0, 0, 0)}}))
	c.DropDataset(0)
	if st := c.Stats(); st.Invalidations != 3 || st.Entries != 1 {
		t.Fatalf("two drops that removed entries: %d invalidations, %d entries; want 3, 1", st.Invalidations, st.Entries)
	}
}

// TestResultCacheContainment pins containment answering: a query window
// inside a cached cell box is answered from that entry, a window crossing
// the cell boundary is not, and the region outlives an epoch advance and
// another dataset's drop. A drop of its own dataset removes exactly that
// dataset's entries and its level index, so the probe finds nothing.
func TestResultCacheContainment(t *testing.T) {
	bounds := geom.UnitBox()
	var epoch atomic.Int64
	c := newResultCache(bounds, 1000, &epoch)
	cell := testKeyAt(1, 0, 0, 0) // [0,0.5]^3 at fanout 2
	c.Insert(1, cell, nil, 0, cell.Box(bounds, 2), cellContent{objs: []object.Object{{ID: 9, Dataset: 1}}})
	c.Insert(2, cell, nil, 0, cell.Box(bounds, 2), cellContent{objs: []object.Object{{ID: 8, Dataset: 2}}})
	c.Insert(3, testKeyAt(2, 0, 0, 0), nil, 0, testKeyAt(2, 0, 0, 0).Box(bounds, 2), cellContent{})

	inside := geom.Cube(geom.V(0.25, 0.25, 0.25), 0.4)
	got, at, ok := c.AnswerContained(1, 2, inside)
	if !ok || len(got.objs) != 1 || got.objs[0].ID != 9 || at != cell {
		t.Fatalf("contained probe = %v at %v, %v; want the cached region content at %v", got, at, ok, cell)
	}

	spanning := geom.Cube(geom.V(0.5, 0.25, 0.25), 0.4) // crosses the cell wall
	if _, _, ok := c.AnswerContained(1, 2, spanning); ok {
		t.Fatal("region answered a window it does not contain")
	}
	if _, _, ok := c.AnswerContained(4, 2, inside); ok {
		t.Fatal("region answered another dataset's window")
	}

	// The layout moves on, and dataset 3 is refined: dataset 1's region still
	// answers.
	epoch.Add(1)
	c.DropDataset(3)
	if got, _, ok := c.AnswerContained(1, 2, inside); !ok || got.objs[0].ID != 9 {
		t.Fatalf("after an epoch advance and another dataset's drop: probe = %v, %v; want the region", got, ok)
	}
	if st := c.Stats(); st.Entries != 2 || c.levels[3] != nil {
		t.Fatalf("dataset 3's drop left %d entries and level index %v; want 2 and none", st.Entries, c.levels[3])
	}

	// Dataset 1 is refined: its entry and level index go, dataset 2's stay.
	c.DropDataset(1)
	if _, _, ok := c.AnswerContained(1, 2, inside); ok {
		t.Fatal("a dropped dataset's region answered by containment")
	}
	if c.levels[1] != nil || c.entries[scanKey{ds: 1, cell: cell}] != nil {
		t.Fatal("the dataset drop left its entry or level index behind")
	}
	if got, _, ok := c.AnswerContained(2, 2, inside); !ok || got.objs[0].ID != 8 {
		t.Fatalf("another dataset's drop took dataset 2's region: probe = %v, %v", got, ok)
	}
	st := c.Stats()
	if st.ContainmentHits != 3 || st.Entries != 1 || st.CachedObjects != 1 || st.Invalidations != 2 {
		t.Fatalf("ledger = %+v; want 3 containment hits, 1 entry of 1 object, 2 invalidations", st)
	}
}

// TestCellAt pins the containment probe's grid arithmetic: the candidate
// cell of a point at each level, the clamped walls, and the out-of-bounds
// rejection.
func TestCellAt(t *testing.T) {
	b := geom.UnitBox()
	if k, ok := octree.CellAt(b, 2, 1, geom.V(0.75, 0.2, 0.6)); !ok || k != testKeyAt(1, 1, 0, 1) {
		t.Fatalf("CellAt level 1 = %v, %v; want {1 1 0 1}", k, ok)
	}
	if k, ok := octree.CellAt(b, 2, 0, geom.V(0.3, 0.9, 0.1)); !ok || k != testKeyAt(0, 0, 0, 0) {
		t.Fatalf("CellAt level 0 = %v, %v; want the root cell", k, ok)
	}
	// The far wall belongs to the last cell, not a phantom one past it.
	if k, ok := octree.CellAt(b, 2, 2, geom.V(1, 1, 1)); !ok || k != testKeyAt(2, 3, 3, 3) {
		t.Fatalf("CellAt far corner = %v, %v; want the last cell", k, ok)
	}
	if _, ok := octree.CellAt(b, 2, 1, geom.V(1.5, 0, 0)); ok {
		t.Fatal("point outside bounds mapped to a cell")
	}
}

// TestResultCacheContainmentDeepestFirst pins the probe's order: when cached
// regions at two levels both contain the window, the deeper — smaller — one
// answers and takes the hit, whatever order the entries went in — which one
// is bumped decides later evictions, so it must not be left to map order. A
// key drop removes exactly its keys: with the deeper region dropped, the
// coarser one answers.
func TestResultCacheContainmentDeepestFirst(t *testing.T) {
	bounds := geom.UnitBox()
	coarse, fine := testKeyAt(1, 0, 0, 0), testKeyAt(2, 0, 0, 0) // [0,0.5]^3 and [0,0.25]^3 at fanout 2
	window := geom.Cube(geom.V(0.1, 0.1, 0.1), 0.1)
	for round := 0; round < 64; round++ {
		c := newResultCache(bounds, 1000, new(atomic.Int64))
		keys := []octree.Key{coarse, fine}
		if round%2 == 1 {
			keys[0], keys[1] = fine, coarse
		}
		for _, k := range keys {
			c.Insert(1, k, nil, 0, k.Box(bounds, 2), cellContent{objs: []object.Object{{ID: uint64(k.Level), Dataset: 1}}})
		}
		got, _, ok := c.AnswerContained(1, 2, window)
		if !ok || len(got.objs) != 1 || got.objs[0].ID != uint64(fine.Level) {
			t.Fatalf("round %d: probe = %v, %v; want the level-%d region's content", round, got, ok, fine.Level)
		}
		if heat := c.entries[scanKey{ds: 1, cell: fine}].heat.Load(); heat != 2 {
			t.Fatalf("round %d: the answering region's heat = %d, want 2 (insert + hit)", round, heat)
		}
		if heat := c.entries[scanKey{ds: 1, cell: coarse}].heat.Load(); heat != 1 {
			t.Fatalf("round %d: the coarser region's heat = %d, want 1 (untouched)", round, heat)
		}
		// A merge published the deeper cell's key: the drop removes it, and
		// the probe goes on to the next level.
		c.DropKeys(slices.Values([]scanKey{{ds: 1, cell: fine}, {ds: 2, cell: coarse}}))
		got, _, ok = c.AnswerContained(1, 2, window)
		if !ok || len(got.objs) != 1 || got.objs[0].ID != uint64(coarse.Level) {
			t.Fatalf("round %d: probe past a dropped region = %v, %v; want the level-%d region's content", round, got, ok, coarse.Level)
		}
		if st := c.Stats(); st.Entries != 1 || st.ContainmentHits != 2 || c.levels[1].mask != 1<<coarse.Level {
			t.Fatalf("round %d: %d entries, %d containment hits, levels %b; want only the coarse region left and 2 hits",
				round, st.Entries, st.ContainmentHits, c.levels[1].mask)
		}
	}
}

// probeReference is the containment probe without its width test: every
// cached level, deepest first, looked up at the cell holding ext's min
// corner.
func probeReference(c *resultCache, ds object.DatasetID, fanout int, ext geom.Box) (cellContent, octree.Key, bool) {
	lv := c.levels[ds]
	if lv == nil {
		return cellContent{}, octree.Key{}, false
	}
	for mask := lv.mask; mask != 0; {
		level := uint32(bits.Len32(mask) - 1)
		mask &^= 1 << level
		cell, ok := octree.CellAt(c.bounds, fanout, level, ext.Min)
		if !ok {
			continue
		}
		if it, ok := c.entries[scanKey{ds: ds, cell: cell}]; ok && it.region.Contains(ext) {
			return it.content, cell, true
		}
	}
	return cellContent{}, octree.Key{}, false
}

// TestProbeSkipsOnlyLevelsTooNarrow: the probe passes over the cached levels
// whose cells are narrower than the window, and must answer exactly as the
// probe that looks every level up. Over fanouts 2 to 4, the unit and a skewed
// volume, random cached sets over levels 0 to 9 and random windows — a
// cached cell's own box, a box a hair wider or narrower than a cell of some
// level, or any box — the two give the same answer, by the same cell.
func TestProbeSkipsOnlyLevelsTooNarrow(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, bounds := range []geom.Box{geom.UnitBox(), {Min: geom.V(-1.3, 0.1, 7), Max: geom.V(2.9, 0.7, 1e3/3.0)}} {
		for fanout := 2; fanout <= 4; fanout++ {
			c := newResultCache(bounds, 1<<20, new(atomic.Int64))
			var keys []octree.Key
			for i := range 400 {
				level := uint32(r.Intn(10))
				side := uint32(math.Pow(float64(fanout), float64(level)))
				// Half the cells near the volume's min corner, where the levels
				// nest, so that windows find several candidates.
				x, y, z := uint32(r.Int63n(int64(side))), uint32(r.Int63n(int64(side))), uint32(r.Int63n(int64(side)))
				if i%2 == 0 {
					x, y, z = x%2, y%2, z%2
				}
				k := octree.Key{Level: level, X: x, Y: y, Z: z}
				keys = append(keys, k)
				c.Insert(1, k, nil, 0, k.Box(bounds, fanout), cellContent{objs: []object.Object{{ID: uint64(i), Dataset: 1}}})
			}
			hits := 0
			for range 20000 {
				var ext geom.Box
				switch k := keys[r.Intn(len(keys))]; r.Intn(3) {
				case 0:
					ext = k.Box(bounds, fanout)
				case 1:
					b := k.Box(bounds, fanout)
					f := []float64{1 - 1e-12, 1 + 1e-12, 0.5, 1 - 1e-7, 1 + 1e-7}[r.Intn(5)]
					ext = geom.Box{Min: b.Min, Max: b.Min.Add(b.Size().Mul(f))}
				default:
					lo := geom.V(r.Float64(), r.Float64(), r.Float64())
					size := bounds.Size()
					lo = geom.Vec{X: bounds.Min.X + lo.X*size.X, Y: bounds.Min.Y + lo.Y*size.Y, Z: bounds.Min.Z + lo.Z*size.Z}
					ext = geom.Box{Min: lo, Max: lo.Add(size.Mul(math.Pow(r.Float64(), 4)))}
				}
				got, gotCell, gotOK := c.probe(1, fanout, ext)
				want, wantCell, wantOK := probeReference(c, 1, fanout, ext)
				if gotOK != wantOK || gotCell != wantCell || gotOK && got.objs[0].ID != want.objs[0].ID {
					t.Fatalf("fanout %d, bounds %v, window %v: the probe answered %v at %v, the reference %v at %v",
						fanout, bounds, ext, gotOK, gotCell, wantOK, wantCell)
				}
				if gotOK {
					hits++
				}
			}
			if hits < 2000 {
				t.Fatalf("fanout %d, bounds %v: only %d of the windows were answered", fanout, bounds, hits)
			}
		}
	}
}

// TestPublishDropsOnlyWhatItChanged drives an inline-maintenance engine with
// the result cache on through the two publishes that change cells, and holds
// what each may drop. A refinement of one dataset leaves another dataset's
// cached cells cached: re-querying them reads nothing from the device. A
// merge publish leaves the cells of a dataset outside the combination cached,
// and drops the keys it published with a child directory, so the next read of
// one carries the directory instead of the file-order partition cached
// before; the keys of one-page segments, which hold what the cache held in
// the same order, stay cached. Every answer is checked against a brute-force
// scan.
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
	// Dataset 1's level-0 build, and refinements around one of its objects
	// away from q, where the merge below takes the level-0 cells.
	var far geom.Vec
	for _, o := range datagen.GenerateDatasets(datagen.Config{Seed: 57, NumObjects: 16000, Clusters: 6}, 2)[1] {
		if !q.Expand(geom.Splat(0.2)).ContainsPoint(o.Center) {
			far = o.Center
			break
		}
	}
	refinements := eng.Metrics().Refinements
	ask(geom.Cube(far, 0.02), 1)
	if eng.Metrics().Refinements == refinements {
		t.Fatal("the query on dataset 1 refined nothing")
	}
	cached("after dataset 1 was refined", q, 0)

	settle(q, 3)
	merged := []object.DatasetID{0, 1, 2}
	for eng.merger.file(KeyOf(merged)) == nil {
		ask(q, merged...)
		if eng.Metrics().Queries > 60 {
			t.Fatal("the combination never merged")
		}
	}
	cached("after the merge published", q, 3)

	// The publish dropped every key its segment gave a directory, and kept
	// the one-page segments' keys, whose cells the cache already held in the
	// segment's order: re-querying one of those cells reads nothing.
	mf := eng.merger.file(KeyOf(merged))
	var onePage []octree.Key
	for _, cell := range mf.EntryKeys() {
		whole := true // every member's segment is one page, and cached
		for _, ds := range merged {
			key := scanKey{ds: ds, cell: cell}
			_, kept := eng.rcache.entries[key]
			one := mf.entries[key].children == nil
			if !one && kept {
				t.Fatalf("published key %v gained a directory and is still cached", key)
			}
			whole = whole && one && kept
		}
		if whole {
			onePage = append(onePage, cell)
		}
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
		if !slices.Equal(it.content.children, seg.children) {
			t.Fatalf("the read of published key %v after the merge is cached with directory %v, not the segment's %v",
				key, it.content.children, seg.children)
		}
		indexed++
	}
	if indexed == 0 {
		t.Fatal("the merge published no segment with a child directory")
	}
}
