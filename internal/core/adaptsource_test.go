package core

import (
	"bytes"
	"context"
	"testing"

	"spaceodyssey/internal/geom"
	"spaceodyssey/internal/object"
	"spaceodyssey/internal/octree"
	"spaceodyssey/internal/pagefile"
	"spaceodyssey/internal/simdisk"
)

// adaptTwin is one of two engines driven through the same history, except
// that the flushed one empties its result cache just before each maintenance
// step, which then reads every source cell from the device.
type adaptTwin struct {
	eng     *Odyssey
	dev     *simdisk.Device
	flushed bool
}

// newAdaptTwins builds the two engines: background maintenance paused, so the
// test runs every step itself, and the result cache on.
func newAdaptTwins(t *testing.T) [2]*adaptTwin {
	t.Helper()
	var twins [2]*adaptTwin
	for i := range twins {
		cfg := asyncConfig(1)
		cfg.CacheResults = true
		eng, _, dev := testSetup(t, 4, 16000, 57, cfg)
		t.Cleanup(eng.Close)
		eng.maint.SetPaused(true)
		twins[i] = &adaptTwin{eng: eng, dev: dev, flushed: i == 1}
	}
	return twins
}

// devicePages counts the pages the device served, from the platter or its
// buffer cache.
func (tw *adaptTwin) devicePages() int64 {
	st := tw.dev.Stats()
	return st.PageReads + st.CacheHits
}

// query answers q over dss.
func (tw *adaptTwin) query(t *testing.T, q geom.Box, dss ...object.DatasetID) {
	t.Helper()
	if _, err := tw.eng.Query(q, dss); err != nil {
		t.Fatal(err)
	}
}

// step runs one maintenance step — the flushed twin empties its cache first —
// and returns how many pages it read from the device.
func (tw *adaptTwin) step(t *testing.T, run func() error) int64 {
	t.Helper()
	if tw.flushed {
		tw.eng.FlushResultCache()
	}
	before := tw.devicePages()
	if err := run(); err != nil {
		t.Fatal(err)
	}
	return tw.devicePages() - before
}

// filePages returns every stored page of f.
func filePages(t *testing.T, f *pagefile.File) []byte {
	t.Helper()
	n, err := f.NumPages()
	if err != nil {
		t.Fatal(err)
	}
	buf, err := f.Device().ReadRunCtx(context.Background(), f.ID(), 0, n)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// sameFiles requires the twins' files of one kind to hold the same pages.
func sameFiles(t *testing.T, what string, a, b *pagefile.File) {
	t.Helper()
	if pa, pb := filePages(t, a), filePages(t, b); !bytes.Equal(pa, pb) {
		t.Fatalf("%s: %d bytes stored from cached cells differ from the %d the device reads gave", what, len(pa), len(pb))
	}
}

// TestAdaptationTakesCachedCells drives twin engines through a merge step and
// background refinements whose source cells the result cache holds. On the
// cached twin the step reads no device page, and each refinement none unless
// its cell is cached with a (2k)³ directory, which it re-reads from the
// device; whatever it read from, every page it wrote equals the page the
// flushed twin wrote from device reads.
func TestAdaptationTakesCachedCells(t *testing.T) {
	twins := newAdaptTwins(t)
	merged := []object.DatasetID{0, 1, 2}
	key := KeyOf(merged)
	whole := geom.UnitBox() // reads every level-0 cell, and refines none

	// The combination crosses mt; its level-0 cells are cached as the tree
	// partitions they are, and merged.
	for _, tw := range twins {
		tw.query(t, whole, merged...)
		tw.query(t, whole, merged...)
		pages := tw.step(t, func() error { return tw.eng.mergeStep(context.Background(), key, merged) })
		if !tw.flushed && pages != 0 {
			t.Fatalf("the merge step copied cached cells and read %d device pages; want none", pages)
		}
		if tw.flushed && pages == 0 {
			t.Fatal("the flushed twin's merge step read nothing from the device")
		}
	}
	mf := [2]*MergeFile{twins[0].eng.merger.file(key), twins[1].eng.merger.file(key)}
	if mf[0] == nil || mf[1] == nil {
		t.Fatal("the merge step published no merge file")
	}
	sameFiles(t, "merge file", mf[0].File(), mf[1].File())

	// Refine one merged cell of dataset 0 of each kind, for a combination the
	// merge file does not route.
	const k = 4
	cells := map[int]octree.Key{} // by directory length: 0, k³+1, (2k)³+1
	for _, cell := range mf[0].EntryKeys() {
		n := len(mf[0].entries[scanKey{ds: 0, cell: cell}].children)
		if _, ok := cells[n]; !ok {
			cells[n] = cell
		}
	}
	for _, n := range []int{0, k*k*k + 1, 8*k*k*k + 1} {
		cell, ok := cells[n]
		if !ok {
			t.Fatalf("no merged cell of dataset 0 has a directory of %d bounds", n)
		}
		// Reading the merged segments caches every cell — again after a
		// refinement dropped the dataset's — with the directory its segment
		// carries.
		for _, tw := range twins {
			tw.query(t, whole, merged...)
		}
		c, ok := twins[0].eng.rcache.Peek(0, cell)
		if !ok || len(c.children) != n {
			t.Fatalf("cell %v: cached %v with a directory of %d bounds, want %d", cell, ok, len(c.children), n)
		}
		// A window whose volume a child of the cell no longer exceeds rt
		// times: one refinement converges it.
		box := EntryBox(geom.UnitBox(), cell, k)
		q := geom.BoxFromCenter(box.Center(), box.Size().Mul(0.15))
		task := refineTask{key: cell, box: q, qVol: q.Volume(), members: []object.DatasetID{0, 3}}
		for _, tw := range twins {
			refinements := tw.eng.Metrics().Refinements
			pages := tw.step(t, func() error {
				_, err := tw.eng.runRefineTask(0, task)
				return err
			})
			if got := tw.eng.Metrics().Refinements - refinements; got != 1 {
				t.Fatalf("cell %v: %d refinements, want 1", cell, got)
			}
			switch {
			case tw.flushed || n == 8*k*k*k+1:
				if pages == 0 {
					t.Fatalf("cell %v, directory of %d bounds, flushed %v: the refinement read nothing from the device",
						cell, n, tw.flushed)
				}
			case pages != 0:
				t.Fatalf("cell %v, directory of %d bounds: the refinement of a cached cell read %d device pages; want none",
					cell, n, pages)
			}
		}
		sameFiles(t, "tree of dataset 0", twins[0].eng.trees[0].File(), twins[1].eng.trees[0].File())
	}
}

// TestLiftedCopyReadsGroupedLeavesFromTheDevice holds the one merge copy the
// cache must not feed although it holds the cells: under CoarsestCover, a
// member whose leaves lie under the lifted entry key is copied as their
// concatenation, and a leaf cached grouped on its own children — as another
// combination's merge segment of the leaf stores it — would reorder it. In
// twin inline engines dataset 0's densest level-1 cell is refined one level
// deeper than the others', and every leaf of it larger than a page is cached
// that way; the step that lifts over them writes the pages the flushed twin's
// device reads give.
func TestLiftedCopyReadsGroupedLeavesFromTheDevice(t *testing.T) {
	dss := []object.DatasetID{0, 1, 2}
	var files [2]*pagefile.File
	for i := range files {
		cfg := DefaultConfig()
		cfg.CacheResults = true
		cfg.Merger.LevelPolicy = CoarsestCover
		cfg.Merger.MergeThreshold = 100 // queries only gather candidates; the step is run by hand
		eng, _, _ := testSetup(t, 3, 16000, 57, cfg)
		query := func(q geom.Box, dss ...object.DatasetID) {
			t.Helper()
			if _, err := eng.Query(q, dss); err != nil {
				t.Fatal(err)
			}
		}
		query(geom.UnitBox(), dss...) // builds the trees, refines nothing
		tree := eng.Tree(0)
		dense := tree.LeafCovering(octree.Key{Level: 1})
		for _, leaf := range tree.AppendLeavesUnder(nil, octree.Key{}) {
			if leaf.Count() > dense.Count() {
				dense = leaf
			}
		}
		// Without the cache, which would answer it by containment, a window
		// a fifteenth of the cell's volume refines the cell one level.
		eng.FlushResultCache()
		query(geom.BoxFromCenter(dense.Box().Center(), geom.Splat(0.05)), 0)
		query(geom.UnitBox(), dss...)
		grouped := 0
		for _, leaf := range tree.AppendLeavesUnder(nil, dense.Key()) {
			if leaf.Key() == dense.Key() || leaf.Count() <= object.PageCapacity {
				continue
			}
			objs, err := tree.ReadPartitionIntoCtx(context.Background(), nil, leaf)
			if err != nil {
				t.Fatal(err)
			}
			slab := make([]object.Object, len(objs))
			dir := groupByChildren(nil, eng.bounds, leaf.Key(), tree.FanoutPerDim(), objs, slab)
			eng.rcache.Insert(0, leaf.Key(), eng.layoutEpoch.Load(), leaf.Box(), cellContent{objs: slab, children: dir})
			grouped++
		}
		if grouped == 0 {
			t.Fatalf("no leaf of refined cell %v holds more than a page", dense.Key())
		}
		if i == 1 {
			eng.FlushResultCache()
		}
		if err := eng.mergeStep(context.Background(), KeyOf(dss), dss); err != nil {
			t.Fatal(err)
		}
		mf := eng.merger.file(KeyOf(dss))
		if mf == nil || mf.entries[scanKey{ds: 0, cell: dense.Key()}].count != dense.Count() {
			t.Fatalf("the merge step did not lift an entry over refined cell %v", dense.Key())
		}
		files[i] = mf.File()
	}
	sameFiles(t, "merge file", files[0], files[1])
}
