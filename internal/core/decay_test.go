package core

import (
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"spaceodyssey/internal/geom"
	"spaceodyssey/internal/object"
)

// heatScore keys an entry whose effective heat is eff as of tick t: the exact
// encoding bumpScore approximates.
func heatScore(eff float64, tick int64, halfLife float64) float64 {
	return math.Log2(eff) + float64(tick)/halfLife
}

// effectiveHeat decodes the decayed access count at tick t. Scores far in
// the past underflow toward 0 — fully cooled, as intended.
func effectiveHeat(score float64, tick int64, halfLife float64) float64 {
	return math.Exp2(score - float64(tick)/halfLife)
}

// exactBump is bumpScore's reference: the old heat decoded, one added, the
// sum encoded again.
func exactBump(score float64, tick int64, halfLife float64) float64 {
	return heatScore(effectiveHeat(score, tick, halfLife)+1, tick, halfLife)
}

// bumpEpsilon is how far bumpScore may be from exactBump.
const bumpEpsilon = 1.0 / (1 << 20)

// checkBump holds bumpScore at score s to its contract: within bumpEpsilon of
// the exact formula, never below s, and no higher than at s2 >= s.
func checkBump(t *testing.T, s, s2 float64, tick int64, halfLife float64) {
	t.Helper()
	got := bumpScore(s, tick, halfLife)
	if want := exactBump(s, tick, halfLife); math.Abs(got-want) > bumpEpsilon {
		t.Fatalf("bumpScore(%v, %d, %v) = %v, exact %v: off by %g", s, tick, halfLife, got, want, got-want)
	}
	if got < s {
		t.Fatalf("bumpScore(%v, %d, %v) = %v, below the score", s, tick, halfLife, got)
	}
	if next := bumpScore(s2, tick, halfLife); next < got {
		t.Fatalf("bumpScore is not monotone: %v -> %v, but %v -> %v (tick %d, half-life %v)", s, got, s2, next, tick, halfLife)
	}
}

// TestHeatBumpMatchesExact sweeps x = score − t/h over [−80, 80] — in jittered
// steps finer than the table's, across its span's ends, and at adjacent
// floats — for three half-lives and clocks from zero to millions of queries.
func TestHeatBumpMatchesExact(t *testing.T) {
	r := rand.New(rand.NewSource(30))
	for _, halfLife := range []float64{1, 64, 1000} {
		for _, tick := range []int64{0, 117, 5 << 20} {
			now := float64(tick) / halfLife
			prev := math.Inf(-1)
			for x := -80.0; x <= 80; x += (0.5 + r.Float64()) / 512 {
				s := now + x
				checkBump(t, s, math.Nextafter(s, math.Inf(1)), tick, halfLife)
				checkBump(t, s, s+r.Float64()/256, tick, halfLife)
				if b := bumpScore(s, tick, halfLife); b < prev {
					t.Fatalf("bumpScore falls from %v to %v at x = %v (tick %d, half-life %v)", prev, b, x, tick, halfLife)
				}
				prev = bumpScore(s, tick, halfLife)
			}
			for _, x := range []float64{-bumpSpan, bumpSpan, 0} {
				for _, s := range []float64{now + x, math.Nextafter(now+x, math.Inf(-1))} {
					checkBump(t, s, math.Nextafter(s, math.Inf(1)), tick, halfLife)
				}
			}
		}
	}
}

// FuzzHeatBump holds bumpScore to its contract at fuzzed scores, clocks and
// half-lives: x = score − t/h in [−80, 80], h in {1, 64, 1000}, and a second
// score dx above the first.
func FuzzHeatBump(f *testing.F) {
	f.Add(0.0, 0.0, int64(0), uint8(0))
	f.Add(2.0, 1e-9, int64(116), uint8(1))
	f.Add(-21.0, 0.5, int64(1<<20), uint8(2))
	f.Add(20.999999, 1e-12, int64(77), uint8(1))
	f.Fuzz(func(t *testing.T, x, dx float64, tick int64, hSel uint8) {
		if math.IsNaN(x) || math.IsNaN(dx) || math.Abs(x) > 80 || math.IsInf(dx, 0) {
			return
		}
		halfLife := []float64{1, 64, 1000}[hSel%3]
		tick = int64(uint64(tick) % (1 << 24)) // a clock of up to 16M queries
		s := float64(tick)/halfLife + x
		checkBump(t, s, s+math.Abs(dx), tick, halfLife)
		checkBump(t, s, math.Nextafter(s, math.Inf(1)), tick, halfLife)
	})
}

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
	c := newResultCache(geom.UnitBox(), 4, new(atomic.Int64))
	c.halfLife = 2
	c.tick = func() int64 { return tick }

	a, b, cc := testKeyAt(2, 0, 0, 0), testKeyAt(2, 1, 0, 0), testKeyAt(2, 2, 0, 0)
	two := []object.Object{{ID: 1}, {ID: 2}}

	// Phase 1: a is the hotspot — inserted and hit repeatedly at tick 0.
	c.Insert(0, a, 0, geom.UnitBox(), cellContent{objs: two})
	for i := 0; i < 7; i++ {
		c.Lookup(0, a)
	}
	// Phase 2, 20 ticks later: the hotspot migrated; b arrives once.
	tick = 20
	c.Insert(0, b, 0, geom.UnitBox(), cellContent{objs: two})
	// Capacity overflow: the decayed-out a must go, not the fresh b.
	c.Insert(0, cc, 0, geom.UnitBox(), cellContent{objs: two})

	if _, ok := c.Lookup(0, a); ok {
		t.Fatal("stale hotspot entry survived eviction despite decay")
	}
	if _, ok := c.Lookup(0, b); !ok {
		t.Fatal("fresh entry was evicted instead of the stale hotspot")
	}
}

// TestResultCacheAdaptiveGrowsOnGhostHits pins the capacity tuner's grow
// path: a working set larger than the budget causes evict/re-miss churn,
// the ghosts witness it, and the next tuning point doubles the capacity.
func TestResultCacheAdaptiveGrowsOnGhostHits(t *testing.T) {
	c := newResultCache(geom.UnitBox(), 2048, new(atomic.Int64))
	c.enableAdaptive()

	one := []object.Object{{ID: 1}}
	// Working set of 3000 single-object entries vs a 2048 budget: inserts
	// evict, re-lookups hit ghosts.
	for round := 0; round < 3; round++ {
		for i := 0; i < 3000; i++ {
			k := testKeyAt(6, uint32(i%64), uint32(i/64), 0)
			if _, ok := c.Lookup(0, k); !ok {
				c.Insert(0, k, 0, geom.UnitBox(), cellContent{objs: one})
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
// toward the floor, and Invalidate (a flush) is a tuning point.
func TestResultCacheAdaptiveShrinksWhenIdle(t *testing.T) {
	c := newResultCache(geom.UnitBox(), 1<<16, new(atomic.Int64))
	c.enableAdaptive()

	// A tiny steady working set: 4 entries, hit over and over.
	one := []object.Object{{ID: 1}}
	for i := 0; i < 4; i++ {
		c.Insert(0, testKeyAt(2, uint32(i), 0, 0), 0, geom.UnitBox(), cellContent{objs: one})
	}
	for op := 0; op < 3*tuneEvery; op++ {
		c.Lookup(0, testKeyAt(2, uint32(op%4), 0, 0))
	}
	st := c.Stats()
	if st.CapacityShrinks == 0 || st.Capacity >= 1<<16 {
		t.Fatalf("oversized idle cache did not shrink: %+v", st)
	}
	if st.Capacity < c.minCap {
		t.Fatalf("capacity %d fell below the floor %d", st.Capacity, c.minCap)
	}

	// A flush also tunes: force another shrink via Invalidate.
	before := c.Stats().Capacity
	c.Invalidate()
	if after := c.Stats().Capacity; after > before {
		t.Fatalf("epoch-boundary tune grew an idle cache: %d -> %d", before, after)
	}
}
