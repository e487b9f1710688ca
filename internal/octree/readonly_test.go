package octree

import (
	"context"
	"sort"
	"testing"

	"spaceodyssey/internal/geom"
	"spaceodyssey/internal/object"
)

// sortObjs orders objects by id for comparison.
func sortObjs(objs []object.Object) {
	sort.Slice(objs, func(i, j int) bool { return objs[i].ID < objs[j].ID })
}

// TestQueryReadOnlyMatchesQuery pins the read-only walk's contract: same
// result set as the mutating Query, zero mutations, and the refinement
// demand the inline walk would have executed reported in WantRefine.
func TestQueryReadOnlyMatchesQuery(t *testing.T) {
	roTree, _, _ := testTree(t, 5000, DefaultConfig(), 51)
	rwTree, _, _ := testTree(t, 5000, DefaultConfig(), 51)

	q := geom.Cube(geom.V(0.3, 0.3, 0.3), 0.08)
	if _, err := roTree.QueryReadOnlyCtx(context.Background(), q, nil); err == nil {
		t.Fatal("read-only query on an unbuilt tree must fail")
	}
	if err := roTree.EnsureBuiltCtx(context.Background()); err != nil {
		t.Fatal(err)
	}

	ro, err := roTree.QueryReadOnlyCtx(context.Background(), q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ro.Refined != 0 || roTree.Refinements != 0 {
		t.Fatalf("read-only walk refined (%d ops)", roTree.Refinements)
	}
	if len(ro.WantRefine) == 0 {
		t.Fatal("hot query reported no refinement demand")
	}

	rw, err := queryRefining(rwTree, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rw.Refined == 0 {
		t.Fatal("mutating walk refined nothing; the comparison is vacuous")
	}
	sortObjs(ro.Objects)
	sortObjs(rw.Objects)
	if len(ro.Objects) != len(rw.Objects) {
		t.Fatalf("read-only walk returned %d objects, mutating walk %d",
			len(ro.Objects), len(rw.Objects))
	}
	for i := range ro.Objects {
		if ro.Objects[i].ID != rw.Objects[i].ID {
			t.Fatalf("object %d differs: %d vs %d", i, ro.Objects[i].ID, rw.Objects[i].ID)
		}
	}
	// The demand set is exactly the leaves the mutating walk refined.
	if len(ro.WantRefine) != rw.Refined {
		t.Fatalf("WantRefine reports %d leaves, mutating walk refined %d",
			len(ro.WantRefine), rw.Refined)
	}
}

// TestRefineRegionConverges pins RefineRegionStep's fixpoint semantics:
// stepped until it reports no work for every wanted key — the loop the
// maintenance scheduler runs — the region no longer demands refinement for
// the same query, and repeated identical queries would have reached the same
// leaf structure one level at a time.
func TestRefineRegionConverges(t *testing.T) {
	bgTree, _, _ := testTree(t, 5000, DefaultConfig(), 52)
	fgTree, _, _ := testTree(t, 5000, DefaultConfig(), 52)
	if err := bgTree.EnsureBuiltCtx(context.Background()); err != nil {
		t.Fatal(err)
	}

	q := geom.Cube(geom.V(0.3, 0.3, 0.3), 0.05)
	qVol := q.Volume()
	ro, err := bgTree.QueryReadOnlyCtx(context.Background(), q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ro.WantRefine) == 0 {
		t.Fatal("no refinement demand; the test is vacuous")
	}
	total := 0
	for _, key := range ro.WantRefine {
		for {
			step, err := bgTree.RefineRegionStep(context.Background(), key, q, qVol)
			if err != nil {
				t.Fatal(err)
			}
			if !step {
				break
			}
			total++
		}
	}
	if total == 0 {
		t.Fatal("RefineRegionStep applied no refinements")
	}
	after, err := bgTree.QueryReadOnlyCtx(context.Background(), q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(after.WantRefine) != 0 {
		t.Fatalf("region still wants %d refinements after stepping to convergence", len(after.WantRefine))
	}

	// The foreground tree converges by repeating the query (one level per
	// pass); both must land on the same leaf structure.
	for i := 0; i < 20; i++ {
		res, err := queryRefining(fgTree, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Refined == 0 {
			break
		}
	}
	bgLeaves := bgTree.Lookup(bgTree.Bounds())
	fgLeaves := fgTree.Lookup(fgTree.Bounds())
	if len(bgLeaves) != len(fgLeaves) {
		t.Fatalf("background convergence: %d leaves, foreground: %d",
			len(bgLeaves), len(fgLeaves))
	}
	for i := range bgLeaves {
		if bgLeaves[i].Key() != fgLeaves[i].Key() {
			t.Fatalf("leaf %d differs: %v vs %v", i, bgLeaves[i].Key(), fgLeaves[i].Key())
		}
	}
}
