package core

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"spaceodyssey/internal/datagen"
	"spaceodyssey/internal/engine"
	"spaceodyssey/internal/geom"
	"spaceodyssey/internal/object"
	"spaceodyssey/internal/octree"
	"spaceodyssey/internal/pagefile"
	"spaceodyssey/internal/rawfile"
	"spaceodyssey/internal/simdisk"
)

// permanentFaults returns a permanent fault on every page of runs in file id.
func permanentFaults(id simdisk.FileID, runs []pagefile.Run) []simdisk.PageFault {
	var out []simdisk.PageFault
	for _, r := range runs {
		for p := r.Start; p < r.Start+r.Count; p++ {
			out = append(out, simdisk.PageFault{File: id, Page: p, Kind: simdisk.FaultPermanent})
		}
	}
	return out
}

// derivedFaults faults every page the engine's tree and merge files hold
// now, and no raw page; pages written later read clean.
func derivedFaults(t *testing.T, eng *Odyssey) simdisk.FaultPlan {
	t.Helper()
	var plan simdisk.FaultPlan
	add := func(f *pagefile.File) {
		n, err := f.NumPages()
		if err != nil {
			t.Fatal(err)
		}
		plan.Pages = append(plan.Pages, permanentFaults(f.ID(), []pagefile.Run{{Count: n}})...)
	}
	for _, tree := range eng.trees {
		add(tree.File())
	}
	for _, mf := range eng.Merger().Files() {
		add(mf.File())
	}
	return plan
}

// TestRederiveIsThePartitionItReplaces re-derives every leaf of a refined
// tree in turn, each after a permanent fault on its pages: the leaf must
// read back the same objects in the same order from its fresh pages, cost
// exactly one raw scan plus its own page writes, and leave the layout
// untouched. A second repair from the same stale error does nothing.
func TestRederiveIsThePartitionItReplaces(t *testing.T) {
	cost := simdisk.DefaultCostModel()
	dev := simdisk.NewDeviceChannels(cost, 0, 1)
	objs := datagen.GenerateDatasets(datagen.Config{Seed: 11, NumObjects: 3000, Clusters: 6}, 1)[0]
	// Centers on cell walls, where a box test would keep an object in both
	// neighbours and only the grid index picks the one a bucketing chose.
	walls := []float64{0, 0.25, 0.40625, 0.4375, 0.5, 0.75, 1}
	for _, x := range walls {
		for _, y := range walls {
			for _, z := range walls {
				objs = append(objs, object.Object{ID: uint64(1e6 + len(objs)), Center: geom.V(x, y, z), HalfExtent: geom.V(1e-3, 1e-3, 1e-3)})
			}
		}
	}
	raw, err := rawfile.Write(dev, "ds", 0, objs)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(dev, []*rawfile.Raw{raw}, geom.UnitBox(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []geom.Vec{geom.V(0.42, 0.42, 0.42), geom.V(0.2, 0.7, 0.5), geom.V(0.8, 0.3, 0.6)} {
		if _, err := eng.Query(geom.Cube(c, 0.05), []object.DatasetID{0}); err != nil {
			t.Fatal(err)
		}
	}
	tree := eng.Tree(0)
	if tree.Refinements == 0 {
		t.Fatal("fixture refined nothing")
	}
	sig := eng.LayoutSignature()
	ctx := context.Background()
	rederived := 0
	for _, leaf := range tree.Lookup(tree.Bounds()) {
		if leaf.Count() == 0 {
			continue // no pages to lose
		}
		before, err := tree.ReadPartitionIntoCtx(ctx, nil, leaf)
		if err != nil {
			t.Fatal(err)
		}
		dev.SetFaultPlan(simdisk.FaultPlan{Pages: permanentFaults(tree.File().ID(), leaf.Runs())})
		_, err = tree.ReadPartitionIntoCtx(ctx, nil, leaf)
		var re *octree.ReadError
		if !errors.As(err, &re) || !errors.Is(err, simdisk.ErrPermanent) {
			t.Fatalf("leaf %v: faulted read returned %v, want a permanent *octree.ReadError", leaf.Key(), err)
		}
		sctx, scope := simdisk.WithOpScope(ctx, simdisk.PriForeground)
		if ok, err := tree.Rederive(sctx, re); !ok || err != nil {
			t.Fatalf("leaf %v: Rederive = %v, %v", leaf.Key(), ok, err)
		}
		// The head leaves the tree file for the raw file and comes back to
		// the tree file's end: two seeks, and every page moved once.
		pages := pagefile.Pages(leaf.Runs())
		want := 2*cost.Seek + time.Duration(raw.NumPages()+pages)*cost.Transfer
		if got := scope.Total(); got != want {
			t.Fatalf("leaf %v: re-derive charged %v, want one raw scan plus %d page writes = %v",
				leaf.Key(), got, pages, want)
		}
		after, err := tree.ReadPartitionIntoCtx(ctx, nil, leaf) // fresh pages: the plan misses them
		if err != nil {
			t.Fatalf("leaf %v: read after re-derive: %v", leaf.Key(), err)
		}
		if !slices.Equal(after, before) {
			t.Fatalf("leaf %v: re-derived %d objects differ from the %d it held", leaf.Key(), len(after), len(before))
		}
		if ok, err := tree.Rederive(ctx, re); ok || err != nil {
			t.Fatalf("leaf %v: a stale error re-derived again: %v, %v", leaf.Key(), ok, err)
		}
		rederived++
	}
	dev.SetFaultPlan(simdisk.FaultPlan{})
	if rederived <= 64 {
		t.Fatalf("re-derived %d leaves; a refined tree has more than 64", rederived)
	}
	if got := eng.LayoutSignature(); got != sig {
		t.Fatalf("re-deriving changed the layout:\n%s\nwant\n%s", got, sig)
	}
}

// TestMergeStepRepairsUnreadableLeaves is the probe that found the gap: in
// the paper configuration one query A on {0,1,2}, then every page of
// dataset 0's leaves under A goes permanently bad. The later queries, far
// from A, cross mt, and the inline merge step copies every accumulated
// candidate, A's leaves included. Each re-derives what it cannot read and is
// served exactly; the layout ends as a fault-free twin's.
func TestMergeStepRepairsUnreadableLeaves(t *testing.T) {
	eng, raws, dev := testSetup(t, 3, 3000, 11, DefaultConfig())
	twin, _, _ := testSetup(t, 3, 3000, 11, DefaultConfig())
	oracle := engine.NewNaiveScan(raws)
	dss := []object.DatasetID{0, 1, 2}
	a := geom.Cube(geom.V(0.2, 0.2, 0.2), 0.1)
	for _, e := range []*Odyssey{eng, twin} {
		if _, err := e.Query(a, dss); err != nil {
			t.Fatal(err)
		}
	}
	tree := eng.Tree(0)
	var plan simdisk.FaultPlan
	for _, leaf := range tree.Lookup(a.Expand(tree.MaxExtent())) {
		plan.Pages = append(plan.Pages, permanentFaults(tree.File().ID(), leaf.Runs())...)
	}
	dev.SetFaultPlan(plan)
	failed := 0
	for _, c := range []geom.Vec{
		geom.V(0.8, 0.8, 0.8), geom.V(0.75, 0.85, 0.7), geom.V(0.85, 0.7, 0.8),
		geom.V(0.7, 0.8, 0.85), geom.V(0.8, 0.75, 0.75),
	} {
		q := geom.Cube(c, 0.1)
		got, err := eng.Query(q, dss)
		if _, terr := twin.Query(q, dss); terr != nil {
			t.Fatal(terr)
		}
		if err != nil {
			failed++
			t.Errorf("query at %v: %v", c, err)
			continue
		}
		want, err := oracle.Query(q, dss)
		if err != nil {
			t.Fatal(err)
		}
		if !engine.SameObjects(got, want) {
			t.Errorf("query at %v: %d objects, oracle %d", c, len(got), len(want))
		}
	}
	m := eng.Metrics()
	t.Logf("%d bad pages under A: %d of 5 queries failed, %d partitions re-derived", len(plan.Pages), failed, m.PartitionsRepaired)
	if m.PartitionsRepaired == 0 {
		t.Error("no partition was re-derived")
	}
	if got, want := eng.LayoutSignature(), twin.LayoutSignature(); got != want {
		t.Errorf("repair changed the converged layout:\n%s\nwant\n%s", got, want)
	}
}

// TestCorruptDerivedPageIsRepaired corrupts a byte of a merge page and of a
// leaf page by rewriting each through the device, so both fail their
// checksum. The next query routed to the merge file evicts it, reads again
// from the trees, re-derives the leaf, and is served exactly.
func TestCorruptDerivedPageIsRepaired(t *testing.T) {
	eng, raws, dev := testSetup(t, 3, 3000, 11, DefaultConfig())
	oracle := engine.NewNaiveScan(raws)
	dss := []object.DatasetID{0, 1, 2}
	for i := 0; i < 2; i++ { // the second crosses mt and merges
		if _, err := eng.Query(hotQuery, dss); err != nil {
			t.Fatal(err)
		}
	}
	if eng.MergeFileCount() != 1 {
		t.Fatalf("%d merge files, want 1", eng.MergeFileCount())
	}
	ctx := context.Background()
	corrupt := func(id simdisk.FileID, page int64) {
		buf := make([]byte, simdisk.PageSize)
		if err := dev.ReadPageCtx(ctx, id, page, buf); err != nil {
			t.Fatal(err)
		}
		buf[20] ^= 0xff // inside the first record, under the page checksum
		if err := dev.WritePageCtx(ctx, id, page, buf); err != nil {
			t.Fatal(err)
		}
	}
	corrupt(eng.Merger().Files()[0].File().ID(), 0)
	tree := eng.Tree(0)
	leaves := tree.Lookup(hotQuery.Expand(tree.MaxExtent()))
	i := slices.IndexFunc(leaves, func(p *octree.Partition) bool { return p.Count() > 0 })
	corrupt(tree.File().ID(), leaves[i].Runs()[0].Start)

	want, err := oracle.Query(hotQuery, dss)
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		got, err := eng.Query(hotQuery, dss)
		if err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
		if !engine.SameObjects(got, want) {
			t.Fatalf("pass %d: %d objects, oracle %d", pass, len(got), len(want))
		}
	}
	if m := eng.Metrics(); m.MergeFilesRepaired != 1 || m.PartitionsRepaired != 1 {
		t.Fatalf("repaired %d merge files and %d partitions, want 1 and 1", m.MergeFilesRepaired, m.PartitionsRepaired)
	}
}

// TestMaintenancePermanentFaultRepairs pins the maintenance half: with
// refinement and merge tasks queued, every tree page goes permanently bad.
// Each task re-derives the partitions it cannot read and completes — none
// fails — and the layout converges as a fault-free twin's does.
func TestMaintenancePermanentFaultRepairs(t *testing.T) {
	dss := []object.DatasetID{0, 1, 2}
	setup := func() (*Odyssey, []*rawfile.Raw, *simdisk.Device) {
		eng, raws, dev := testSetup(t, 3, 3000, 11, asyncConfig(1))
		enqueueHotWork(t, eng, dss)
		if _, err := eng.Query(hotQuery, dss); err != nil { // crosses mt: a merge task
			t.Fatal(err)
		}
		return eng, raws, dev
	}
	eng, raws, dev := setup()
	defer eng.Close()
	twin, _, _ := setup()
	defer twin.Close()

	dev.SetFaultPlan(derivedFaults(t, eng))
	for _, e := range []*Odyssey{eng, twin} {
		e.maint.SetPaused(false)
		quiesceTimeout(t, e)
	}
	st := eng.MaintenanceStats()
	if st.Failed != 0 || st.MergeTasks == 0 || st.RefineTasks == 0 {
		t.Fatalf("maintenance under faults: %+v, last error %v", st, eng.MaintenanceErr())
	}
	if eng.Metrics().PartitionsRepaired == 0 {
		t.Fatal("no partition was re-derived")
	}
	if got, want := eng.LayoutSignature(), twin.LayoutSignature(); got != want {
		t.Fatalf("repair changed the converged layout:\n%s\nwant\n%s", got, want)
	}
	got, err := eng.Query(hotQuery, dss)
	if err != nil {
		t.Fatal(err)
	}
	want, err := engine.NewNaiveScan(raws).Query(hotQuery, dss)
	if err != nil {
		t.Fatal(err)
	}
	if !engine.SameObjects(got, want) {
		t.Fatalf("%d objects, oracle %d", len(got), len(want))
	}
}
