package core

import (
	"testing"

	"spaceodyssey/internal/geom"
	"spaceodyssey/internal/object"
	"spaceodyssey/internal/octree"
)

// TestResultCacheExactHitAndEpochDrop pins the cache's key contract: an
// insert at epoch E answers a lookup at E (a cached empty cell included),
// and any other epoch is a miss that drops the dead entry on sight.
func TestResultCacheExactHitAndEpochDrop(t *testing.T) {
	c := newResultCache(geom.UnitBox(), 100)
	cell := testKeyAt(1, 0, 0, 0)
	region := cell.Box(geom.UnitBox(), 2)
	objs := []object.Object{{ID: 1, Dataset: 3}, {ID: 2, Dataset: 3}}

	c.Insert(3, cell, 5, region, cellContent{objs: objs})
	got, ok := c.Lookup(3, cell, 5)
	if !ok || len(got.objs) != 2 {
		t.Fatalf("Lookup = %v, %v; want the 2 inserted objects", got, ok)
	}

	// A cached empty cell is a hit, not a miss — ok carries the answer.
	empty := testKeyAt(1, 1, 0, 0)
	c.Insert(3, empty, 5, empty.Box(geom.UnitBox(), 2), cellContent{})
	if got, ok := c.Lookup(3, empty, 5); !ok || len(got.objs) != 0 {
		t.Fatalf("cached empty cell: Lookup = %v, %v; want [], true", got, ok)
	}

	// A later epoch kills the entry: the stale lookup misses AND removes it,
	// so even the original epoch misses afterwards.
	if _, ok := c.Lookup(3, cell, 6); ok {
		t.Fatal("stale-epoch entry served")
	}
	if _, ok := c.Lookup(3, cell, 5); ok {
		t.Fatal("stale entry not dropped on sight")
	}

	st := c.Stats()
	if st.Hits != 2 || st.Misses != 2 || st.Inserts != 2 {
		t.Fatalf("ledger = %+v, want 2 hits / 2 misses / 2 inserts", st)
	}
	if st.Entries != 1 || st.CachedObjects != 0 {
		t.Fatalf("entries/objects = %d/%d, want 1/0 (only the empty cell left)",
			st.Entries, st.CachedObjects)
	}
}

// TestResultCacheEvictsColdestFirst pins heat-aware eviction: when capacity
// overflows, the entry with the fewest hits goes first and hot entries
// survive; an entry bigger than the whole budget is never admitted.
func TestResultCacheEvictsColdestFirst(t *testing.T) {
	c := newResultCache(geom.UnitBox(), 4)
	a, b, cc := testKeyAt(2, 0, 0, 0), testKeyAt(2, 1, 0, 0), testKeyAt(2, 2, 0, 0)
	two := []object.Object{{ID: 1}, {ID: 2}}

	c.Insert(0, a, 1, geom.UnitBox(), cellContent{objs: two})
	c.Insert(0, b, 1, geom.UnitBox(), cellContent{objs: two})
	c.Lookup(0, a, 1) // heat a above b
	c.Insert(0, cc, 1, geom.UnitBox(), cellContent{objs: two})

	if _, ok := c.Lookup(0, b, 1); ok {
		t.Fatal("coldest entry survived eviction")
	}
	if _, ok := c.Lookup(0, a, 1); !ok {
		t.Fatal("hot entry was evicted instead of the coldest")
	}
	if _, ok := c.Lookup(0, cc, 1); !ok {
		t.Fatal("freshly inserted entry missing")
	}
	st := c.Stats()
	if st.Evictions != 1 || st.CachedObjects != 4 {
		t.Fatalf("evictions/objects = %d/%d, want 1/4", st.Evictions, st.CachedObjects)
	}

	// An oversized scan must not flush the whole cache just to fail to fit.
	five := make([]object.Object, 5)
	c.Insert(0, testKeyAt(2, 3, 0, 0), 1, geom.UnitBox(), cellContent{objs: five})
	if _, ok := c.Lookup(0, testKeyAt(2, 3, 0, 0), 1); ok {
		t.Fatal("entry larger than the whole budget was admitted")
	}
	if st := c.Stats(); st.Entries != 2 {
		t.Fatalf("oversized insert disturbed the cache: %d entries, want 2", st.Entries)
	}
}

// TestResultCacheInvalidateCountsOnlyFlushes pins the Invalidations
// semantics: a publish over an empty cache is a no-op and is not counted.
func TestResultCacheInvalidateCountsOnlyFlushes(t *testing.T) {
	c := newResultCache(geom.UnitBox(), 100)
	c.Invalidate()
	if st := c.Stats(); st.Invalidations != 0 {
		t.Fatalf("empty-cache invalidate counted: %d", st.Invalidations)
	}
	c.Insert(0, testKeyAt(1, 0, 0, 0), 1, geom.UnitBox(), cellContent{objs: []object.Object{{ID: 1}}})
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
}

// TestResultCacheContainment pins containment answering: a query window
// inside a cached cell box is answered from that entry, a window crossing
// the cell boundary is not, and a stale-epoch region never answers.
func TestResultCacheContainment(t *testing.T) {
	bounds := geom.UnitBox()
	c := newResultCache(bounds, 1000)
	cell := testKeyAt(1, 0, 0, 0) // [0,0.5]^3 at fanout 2
	c.Insert(1, cell, 7, cell.Box(bounds, 2), cellContent{objs: []object.Object{{ID: 9, Dataset: 1}}})

	inside := geom.Cube(geom.V(0.25, 0.25, 0.25), 0.4)
	got, at, ok := c.AnswerContained(1, 2, 7, inside)
	if !ok || len(got.objs) != 1 || got.objs[0].ID != 9 || at != cell {
		t.Fatalf("contained probe = %v at %v, %v; want the cached region content at %v", got, at, ok, cell)
	}

	spanning := geom.Cube(geom.V(0.5, 0.25, 0.25), 0.4) // crosses the cell wall
	if _, _, ok := c.AnswerContained(1, 2, 7, spanning); ok {
		t.Fatal("region answered a window it does not contain")
	}
	if _, _, ok := c.AnswerContained(2, 2, 7, inside); ok {
		t.Fatal("region answered another dataset's window")
	}
	if _, _, ok := c.AnswerContained(1, 2, 8, inside); ok {
		t.Fatal("stale-epoch region answered by containment")
	}
	st := c.Stats()
	if st.ContainmentHits != 1 {
		t.Fatalf("ContainmentHits = %d, want 1", st.ContainmentHits)
	}
	// The stale probe dropped the dead entry.
	if st.Entries != 0 {
		t.Fatalf("stale entry survived the containment probe: %d entries", st.Entries)
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
// is bumped decides later evictions, so it must not be left to map order.
func TestResultCacheContainmentDeepestFirst(t *testing.T) {
	bounds := geom.UnitBox()
	coarse, fine := testKeyAt(1, 0, 0, 0), testKeyAt(2, 0, 0, 0) // [0,0.5]^3 and [0,0.25]^3 at fanout 2
	window := geom.Cube(geom.V(0.1, 0.1, 0.1), 0.1)
	for round := 0; round < 64; round++ {
		c := newResultCache(bounds, 1000)
		keys := []octree.Key{coarse, fine}
		if round%2 == 1 {
			keys[0], keys[1] = fine, coarse
		}
		for _, k := range keys {
			c.Insert(1, k, 7, k.Box(bounds, 2), cellContent{objs: []object.Object{{ID: uint64(k.Level), Dataset: 1}}})
		}
		got, _, ok := c.AnswerContained(1, 2, 7, window)
		if !ok || len(got.objs) != 1 || got.objs[0].ID != uint64(fine.Level) {
			t.Fatalf("round %d: probe = %v, %v; want the level-%d region's content", round, got, ok, fine.Level)
		}
		if heat := c.entries[scanKey{ds: 1, cell: fine}].heat.Load(); heat != 2 {
			t.Fatalf("round %d: the answering region's heat = %d, want 2 (insert + hit)", round, heat)
		}
		if heat := c.entries[scanKey{ds: 1, cell: coarse}].heat.Load(); heat != 1 {
			t.Fatalf("round %d: the coarser region's heat = %d, want 1 (untouched)", round, heat)
		}
		// A dead entry on the way is dropped, and the probe goes on to the
		// next level.
		c.Insert(1, fine, 6, fine.Box(bounds, 2), cellContent{})
		got, _, ok = c.AnswerContained(1, 2, 7, window)
		if !ok || len(got.objs) != 1 || got.objs[0].ID != uint64(coarse.Level) {
			t.Fatalf("round %d: probe past a dead region = %v, %v; want the level-%d region's content", round, got, ok, coarse.Level)
		}
		if st := c.Stats(); st.Entries != 1 || st.ContainmentHits != 2 {
			t.Fatalf("round %d: %d entries, %d containment hits; want the dead entry dropped and 2 hits", round, st.Entries, st.ContainmentHits)
		}
	}
}
