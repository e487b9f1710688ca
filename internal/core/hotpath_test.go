package core

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"spaceodyssey/internal/datagen"
	"spaceodyssey/internal/engine"
	"spaceodyssey/internal/geom"
	"spaceodyssey/internal/object"
	"spaceodyssey/internal/octree"
)

// TestKeyOfRendering pins KeyOf's output, byte for byte, to the fmt rendering
// it used to be built with: ids in ascending order, in decimal, joined by
// commas — for no id, one, and many, with ids of more than one digit.
func TestKeyOfRendering(t *testing.T) {
	old := func(ids []object.DatasetID) ComboKey {
		ids = slices.Clone(ids)
		slices.Sort(ids)
		var b strings.Builder
		for i, ds := range ids {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%d", ds)
		}
		return ComboKey(b.String())
	}
	many := make([]object.DatasetID, 40) // renders past keyOfSorted's stack buffer
	for i := range many {
		many[i] = object.DatasetID(1000003 * (40 - i))
	}
	for _, ids := range [][]object.DatasetID{
		nil, {0}, {7}, {10}, {2, 0, 1}, {12, 9, 100, 11, 10}, {4294967295, 0, 65536}, {5, 5, 3}, many,
	} {
		if got, want := KeyOf(ids), old(ids); got != want {
			t.Errorf("KeyOf(%v) = %q, want %q", ids, got, want)
		}
	}
}

// TestReadMergedReadsASharedSegmentOnce: when the tree is finer than the
// merge file — several leaves under one entry — the leaves are all served by
// the entry's one segment, which is read once and counted once.
func TestReadMergedReadsASharedSegmentOnce(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Merger.MinCombination = 1 // a one-dataset merge file: one segment per entry
	eng, raws, _ := testSetup(t, 1, 4000, 17, cfg)
	dss := []object.DatasetID{0}
	q := geom.Cube(geom.V(0.4, 0.4, 0.4), 0.05)
	for i := 0; i < 6; i++ { // refine, cross mt, merge
		if _, err := eng.Query(q, dss); err != nil {
			t.Fatal(err)
		}
	}
	mf, rel := eng.merger.LookupNoTouch(dss)
	if rel != RelExact || mf.NumEntries() == 0 {
		t.Fatalf("no merge file for the combination (relation %v)", rel)
	}
	// Refine the tree below one merged entry, as no query would (merged
	// partitions are not refined): its cell now holds ppl leaves.
	tree := eng.trees[0]
	entries := mf.EntryKeys()
	entry := entries[slices.IndexFunc(entries, func(k octree.Key) bool { return tree.LeafAt(k).Count() > 0 })]
	cell := EntryBox(eng.bounds, entry, tree.FanoutPerDim())
	if step, err := tree.RefineRegionStep(context.Background(), entry, cell, cell.Volume()/(2*cfg.Octree.RefinementThreshold)); err != nil || !step {
		t.Fatalf("refining the merged cell: step %v, err %v", step, err)
	}
	window := geom.Box{Min: cell.Min.Add(cell.Size().Mul(0.3)), Max: cell.Max.Sub(cell.Size().Mul(0.3))}
	if leaves := tree.Lookup(window.Expand(tree.MaxExtent())); len(leaves) < 2 {
		t.Fatalf("the window hits %d leaves; it must hit several under the one entry", len(leaves))
	}

	before, readBefore := eng.Metrics(), eng.merger.segmentsRead
	got, err := eng.Query(window, dss)
	if err != nil {
		t.Fatal(err)
	}
	after := eng.Metrics()
	if d := after.PartitionsFromMerge - before.PartitionsFromMerge; d != 1 {
		t.Errorf("PartitionsFromMerge grew by %d, want 1: the leaves share one segment", d)
	}
	if d := after.PartitionsFromTree - before.PartitionsFromTree; d != 0 {
		t.Errorf("PartitionsFromTree grew by %d, want 0: every leaf is served by the segment", d)
	}
	if d := eng.merger.segmentsRead - readBefore; d != 1 {
		t.Errorf("the segment was read %d times, want once", d)
	}
	want, err := engine.NewNaiveScan(raws).Query(window, dss)
	if err != nil {
		t.Fatal(err)
	}
	engine.SortObjects(got)
	engine.SortObjects(want)
	if !slices.Equal(got, want) {
		t.Fatalf("the query returned %d objects, the brute-force scan %d (or others)", len(got), len(want))
	}
}

// TestMergeReadsOrderedByFilePosition pins the order readMerged reads in:
// file position first, then (dataset, cell) among the equal positions that
// shared segments make possible — a function of the reads alone, whatever
// order the walks booked them in, each read once.
func TestMergeReadsOrderedByFilePosition(t *testing.T) {
	a, b := testKeyAt(2, 1, 0, 0), testKeyAt(2, 0, 1, 0) // b sorts after a: (level, z, y, x)
	want := []mergeRead{
		{entry: b, ds: 2, start: 0},
		{entry: a, ds: 1, start: 8},
		{entry: b, ds: 1, start: 8},
		{entry: a, ds: 2, start: 8},
		{entry: a, ds: 0, start: 40},
	}
	booked := []mergeRead{want[4], want[2], want[0], want[3], want[2], want[1], want[4], want[0]}
	slices.SortFunc(booked, compareMergeReads)
	if got := slices.Compact(booked); !slices.Equal(got, want) {
		t.Fatalf("reads ordered %v, want %v", got, want)
	}
}

// servingConfig is every serving mode the stack grew, as the benchmark's
// serving preset turns them on.
func servingConfig() Config {
	cfg := DefaultConfig()
	cfg.AsyncMaintenance = true
	cfg.CacheResults = true
	cfg.AdaptiveCache = true
	cfg.HeatHalfLife = 64
	return cfg
}

// TestCachedQueryAllocations guards what a query over cached cells allocates
// on a converged serving engine: the combination key, the cache scope and its
// context, and the reply. Measured here: 4 per query; the same queries cost
// 42 before the merge reads became a sorted slice, the walk closure-free and
// the per-query slices pooled, and 7 while every walk allocated its own
// Touched list. The bound is the measured count plus one, for a pool the
// collector emptied, not for a regression.
func TestCachedQueryAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	eng, _, _ := testSetup(t, 3, 6000, 23, servingConfig())
	defer eng.Close()
	ctx := context.Background()
	dss := []object.DatasetID{0, 1, 2}
	// Windows on the data (testSetup's generator, again), so replies are not
	// empty.
	data := datagen.GenerateDatasets(datagen.Config{Seed: 23, NumObjects: 6000, Clusters: 6}, 1)[0]
	var pool []geom.Box
	for i := 0; i < 8; i++ {
		pool = append(pool, geom.Cube(data[i*700].Center, 0.06))
	}
	pass := func() {
		for _, q := range pool {
			if _, err := eng.QueryCtx(ctx, q, dss); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Converge: until a quiesced pass leaves the layout where it found it;
	// that pass also left every cell of the working set cached.
	for i := 0; ; i++ {
		epoch := eng.layoutEpoch.Load()
		pass()
		if err := eng.Quiesce(ctx); err != nil {
			t.Fatal(err)
		}
		if eng.layoutEpoch.Load() == epoch {
			break
		}
		if i == 30 {
			t.Fatal("the layout is still moving after 30 passes")
		}
	}
	before, merged := eng.CacheStats(), eng.Metrics().PartitionsFromMerge
	const runs = 200
	next, replied := 0, 0
	allocs := testing.AllocsPerRun(runs, func() {
		objs, err := eng.QueryCtx(ctx, pool[next%len(pool)], dss)
		if err != nil {
			t.Fatal(err)
		}
		next++
		replied += len(objs)
	})
	after := eng.CacheStats()
	if got := after.ZeroReadQueries - before.ZeroReadQueries; got != runs+1 {
		t.Fatalf("%d of %d queries were answered without a device read; the working set must be cached", got, runs+1)
	}
	if after.Misses != before.Misses || eng.Metrics().PartitionsFromMerge == merged {
		t.Fatalf("the queries must hit the cache on merge segments: %d new misses, %d segments", after.Misses-before.Misses, eng.Metrics().PartitionsFromMerge-merged)
	}
	if allocs > 5 {
		t.Fatalf("a query over cached cells allocates %v times, want <= 5", allocs)
	}
	t.Logf("%v allocations per cached query of %.1f segments and %.1f objects", allocs,
		float64(eng.Metrics().PartitionsFromMerge-merged)/(runs+1), float64(replied)/(runs+1))
}
