package core

import (
	"math"
	"testing"

	"spaceodyssey/internal/geom"
	"spaceodyssey/internal/object"
)

// TestHeatDecayHalfLifeMath pins the log-space half-life arithmetic: a
// score is constant while untouched, the decoded heat halves every
// halfLife ticks exactly, and bumping re-encodes decayed-heat-plus-one.
func TestHeatDecayHalfLifeMath(t *testing.T) {
	const h = 16.0
	s := heatScore(8, 100, h) // heat 8 as of tick 100

	if got := effectiveHeat(s, 100, h); math.Abs(got-8) > 1e-9 {
		t.Fatalf("effectiveHeat at encode tick = %g, want 8", got)
	}
	// One half-life later the heat has halved; two later, quartered.
	if got := effectiveHeat(s, 100+16, h); math.Abs(got-4) > 1e-9 {
		t.Fatalf("after one half-life: %g, want 4", got)
	}
	if got := effectiveHeat(s, 100+32, h); math.Abs(got-2) > 1e-9 {
		t.Fatalf("after two half-lives: %g, want 2", got)
	}

	// bumpScore at tick 116 = decayed heat (4) + 1 = 5 as of 116.
	b := bumpScore(s, 116, h)
	if got := effectiveHeat(b, 116, h); math.Abs(got-5) > 1e-9 {
		t.Fatalf("bumped heat = %g, want 5", got)
	}

	// Score ordering is time-invariant: comparing two untouched entries at
	// any later tick compares their decayed heats.
	a := heatScore(100, 0, h) // very hot, long ago
	c := heatScore(2, 200, h) // barely warm, fresh
	// At tick 200, a has decayed by 2^(200/16) ≈ 5800x — far below 2.
	if !(a < c) {
		t.Fatalf("stale hotspot (score %g) should rank below fresh entry (score %g)", a, c)
	}
}

// TestResultCacheDecayReleasesStaleHotspot pins the tentpole behavior: with
// a half-life configured, an entry that was very hot long ago is evicted
// before a fresh barely-touched one — a migrated hotspot releases its cache
// space. (Without decay the old entry's accumulated heat would pin it, as
// TestResultCacheEvictsColdestFirst shows.)
func TestResultCacheDecayReleasesStaleHotspot(t *testing.T) {
	var tick int64
	c := newResultCache(geom.UnitBox(), 4)
	c.halfLife = 2
	c.tick = func() int64 { return tick }

	a, b, cc := testKeyAt(2, 0, 0, 0), testKeyAt(2, 1, 0, 0), testKeyAt(2, 2, 0, 0)
	two := []object.Object{{ID: 1}, {ID: 2}}

	// Phase 1: a is the hotspot — inserted and hit repeatedly at tick 0.
	c.Insert(0, a, 1, geom.UnitBox(), cellContent{objs: two})
	for i := 0; i < 7; i++ {
		c.Lookup(0, a, 1)
	}
	// Phase 2, 20 ticks later: the hotspot migrated; b arrives once.
	tick = 20
	c.Insert(0, b, 1, geom.UnitBox(), cellContent{objs: two})
	// Capacity overflow: the decayed-out a must go, not the fresh b.
	c.Insert(0, cc, 1, geom.UnitBox(), cellContent{objs: two})

	if _, ok := c.Lookup(0, a, 1); ok {
		t.Fatal("stale hotspot entry survived eviction despite decay")
	}
	if _, ok := c.Lookup(0, b, 1); !ok {
		t.Fatal("fresh entry was evicted instead of the stale hotspot")
	}
}

// TestResultCacheAdaptiveGrowsOnGhostHits pins the capacity tuner's grow
// path: a working set larger than the budget causes evict/re-miss churn,
// the ghosts witness it, and the next tuning point doubles the capacity.
func TestResultCacheAdaptiveGrowsOnGhostHits(t *testing.T) {
	c := newResultCache(geom.UnitBox(), 2048)
	c.enableAdaptive()

	one := []object.Object{{ID: 1}}
	// Working set of 3000 single-object entries vs a 2048 budget: inserts
	// evict, re-lookups hit ghosts.
	for round := 0; round < 3; round++ {
		for i := 0; i < 3000; i++ {
			k := testKeyAt(6, uint32(i%64), uint32(i/64), 0)
			if _, ok := c.Lookup(0, k, 1); !ok {
				c.Insert(0, k, 1, geom.UnitBox(), cellContent{objs: one})
			}
		}
	}
	st := c.Stats()
	if st.GhostHits == 0 {
		t.Fatalf("no ghost hits recorded on a thrashing working set: %+v", st)
	}
	if st.CapacityGrows == 0 || st.Capacity <= 2048 {
		t.Fatalf("capacity did not grow under capacity misses: %+v", st)
	}
}

// TestResultCacheAdaptiveShrinksWhenIdle pins the shrink path: windows with
// no evictions and occupancy far below budget halve the capacity down
// toward the floor, and Invalidate (the epoch boundary) is a tuning point.
func TestResultCacheAdaptiveShrinksWhenIdle(t *testing.T) {
	c := newResultCache(geom.UnitBox(), 1<<16)
	c.enableAdaptive()

	// A tiny steady working set: 4 entries, hit over and over.
	one := []object.Object{{ID: 1}}
	for i := 0; i < 4; i++ {
		c.Insert(0, testKeyAt(2, uint32(i), 0, 0), 1, geom.UnitBox(), cellContent{objs: one})
	}
	for op := 0; op < 3*tuneEvery; op++ {
		c.Lookup(0, testKeyAt(2, uint32(op%4), 0, 0), 1)
	}
	st := c.Stats()
	if st.CapacityShrinks == 0 || st.Capacity >= 1<<16 {
		t.Fatalf("oversized idle cache did not shrink: %+v", st)
	}
	if st.Capacity < c.minCap {
		t.Fatalf("capacity %d fell below the floor %d", st.Capacity, c.minCap)
	}

	// The epoch boundary also tunes: force another shrink via Invalidate.
	before := c.Stats().Capacity
	c.Invalidate()
	if after := c.Stats().Capacity; after > before {
		t.Fatalf("epoch-boundary tune grew an idle cache: %d -> %d", before, after)
	}
}
