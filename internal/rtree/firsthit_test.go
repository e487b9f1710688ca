package rtree

import (
	"testing"

	"spaceodyssey/internal/geom"
	"spaceodyssey/internal/object"
	"spaceodyssey/internal/simdisk"
)

func TestFirstHit(t *testing.T) {
	tree, objs, dev := buildTestTree(t, 4000, 51)

	// A query centered on a known object must return some intersecting
	// object, with far fewer reads than a full query.
	q := geom.Cube(objs[10].Center, 0.02)
	dev.ResetStats()
	hit, found, err := tree.FirstHit(q)
	if err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatal("FirstHit missed a populated region")
	}
	if !hit.Intersects(q) {
		t.Fatalf("FirstHit returned non-intersecting object %d", hit.ID)
	}
	firstReads := dev.Stats().PageReads

	dev.ResetStats()
	all, err := tree.Query(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	fullReads := dev.Stats().PageReads
	if len(all) > 1 && firstReads >= fullReads {
		t.Fatalf("FirstHit read %d pages, full query %d — no early exit", firstReads, fullReads)
	}

	// A query in empty space finds nothing.
	empty := geom.Cube(geom.V(-5, -5, -5), 0.1)
	if _, found, err := tree.FirstHit(empty); err != nil || found {
		t.Fatalf("empty-space FirstHit: found=%v err=%v", found, err)
	}
}

func TestFirstHitEmptyTree(t *testing.T) {
	dev := simdisk.NewDeviceChannels(simdisk.CostModel{}, 0, 1)
	tree, err := Build(dev, "e", nil, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, found, err := tree.FirstHit(geom.UnitBox()); err != nil || found {
		t.Fatalf("empty tree FirstHit: found=%v err=%v", found, err)
	}
}

func TestFirstHitPropagatesFault(t *testing.T) {
	tree, _, dev := buildTestTree(t, 2000, 53)
	// Fault the root node page: the first FirstHit read must fail. The
	// tree file is the only file on this device besides the sort scratch
	// (deleted), so its id is enumerable; fault every page 0..N of it.
	var plan simdisk.FaultPlan
	for id := simdisk.FileID(1); id < 10; id++ {
		if _, err := dev.NumPages(id); err == nil {
			plan.Pages = append(plan.Pages, simdisk.PageFault{File: id, Page: -1, Err: simdisk.ErrOutOfRange})
		}
	}
	dev.SetFaultPlan(plan)
	if _, _, err := tree.FirstHit(geom.UnitBox()); err == nil {
		t.Fatal("device fault not propagated through FirstHit")
	}
	_ = object.PageCapacity
}
