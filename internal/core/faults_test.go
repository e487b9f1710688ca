package core

import (
	"context"
	"errors"
	"testing"

	"spaceodyssey/internal/engine"
	"spaceodyssey/internal/geom"
	"spaceodyssey/internal/object"
	"spaceodyssey/internal/simdisk"
)

// TestQuerySurvivesTransientDeviceFault injects a one-shot read error and
// checks that (a) the error propagates to the caller and (b) the engine
// keeps answering correctly afterwards.
func TestQuerySurvivesTransientDeviceFault(t *testing.T) {
	eng, raws, dev := testSetup(t, 3, 2000, 91, DefaultConfig())
	oracle := engine.NewNaiveScan(raws)
	q := geom.Cube(geom.V(0.5, 0.5, 0.5), 0.05)
	dss := []object.DatasetID{0, 1, 2}

	// Prime the engine (build trees).
	if _, err := eng.Query(q, dss); err != nil {
		t.Fatal(err)
	}

	// Fault every file's page 0 so whichever file the next query reads
	// first fails. File ids 1..N exist on this device.
	boom := errors.New("media error")
	var plan simdisk.FaultPlan
	for id := simdisk.FileID(1); id < 40; id++ {
		if _, err := dev.NumPages(id); err == nil {
			plan.Pages = append(plan.Pages, simdisk.PageFault{File: id, Page: 0, Count: 1, Err: boom})
		}
	}
	dev.SetFaultPlan(plan)
	// A whole-volume query must touch page 0 of the partition files.
	all := geom.NewBox(geom.V(0.001, 0.001, 0.001), geom.V(0.999, 0.999, 0.999))
	if _, err := eng.Query(all, dss); !errors.Is(err, boom) {
		t.Fatalf("fault not propagated: %v", err)
	}

	// Faults are one-shot per page; after clearing the remaining ones by
	// touching them, the engine must return exact results again.
	buf := make([]byte, simdisk.PageSize)
	for id := simdisk.FileID(1); id < 40; id++ {
		if n, err := dev.NumPages(id); err == nil && n > 0 {
			_ = dev.ReadPageCtx(context.Background(), id, 0, buf) // consume any armed fault
		}
	}
	got, err := eng.Query(q, dss)
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracle.Query(q, dss)
	if err != nil {
		t.Fatal(err)
	}
	if !engine.SameObjects(got, want) {
		t.Fatalf("post-fault results wrong: %d vs %d", len(got), len(want))
	}
}

// TestFirstQueryFaultDuringBuild injects a fault into a raw file so the
// level-0 scan fails; the tree must stay unbuilt and succeed on retry.
func TestFirstQueryFaultDuringBuild(t *testing.T) {
	eng, _, dev := testSetup(t, 2, 1000, 92, DefaultConfig())
	boom := errors.New("raw read error")
	// Raw files were created first on this device: ids 1 and 2.
	dev.SetFaultPlan(simdisk.FaultPlan{Pages: []simdisk.PageFault{{File: 1, Page: 0, Count: 1, Err: boom}}})
	q := geom.Cube(geom.V(0.5, 0.5, 0.5), 0.05)
	if _, err := eng.Query(q, []object.DatasetID{0}); !errors.Is(err, boom) {
		t.Fatalf("build fault not propagated: %v", err)
	}
	if eng.Tree(0).Built() {
		t.Fatal("tree marked built despite failed level-0 scan")
	}
	// Retry succeeds (fault was one-shot).
	if _, err := eng.Query(q, []object.DatasetID{0}); err != nil {
		t.Fatalf("retry failed: %v", err)
	}
	if !eng.Tree(0).Built() {
		t.Fatal("tree not built after successful retry")
	}
}
