package engine

import (
	"context"
	"math/rand"
	"testing"

	"spaceodyssey/internal/datagen"
	"spaceodyssey/internal/geom"
	"spaceodyssey/internal/object"
	"spaceodyssey/internal/rawfile"
	"spaceodyssey/internal/simdisk"
)

func mkRaws(t *testing.T, n, perDS int) []*rawfile.Raw {
	t.Helper()
	dev := simdisk.NewDeviceChannels(simdisk.CostModel{}, 0, 1)
	dss := datagen.GenerateDatasets(datagen.Config{Seed: 1, NumObjects: perDS}, n)
	raws := make([]*rawfile.Raw, n)
	for i, objs := range dss {
		raw, err := rawfile.Write(dev, "ds", object.DatasetID(i), objs)
		if err != nil {
			t.Fatal(err)
		}
		raws[i] = raw
	}
	return raws
}

func TestNaiveScanBasics(t *testing.T) {
	raws := mkRaws(t, 2, 500)
	e := NewNaiveScan(raws)
	if err := e.Build(); err != nil {
		t.Fatal("Build must be a no-op")
	}
	all, err := e.Query(geom.UnitBox().Expand(geom.Splat(1)), []object.DatasetID{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 1000 {
		t.Fatalf("full query returned %d", len(all))
	}
	// Unknown datasets are silently skipped (no raw file registered).
	some, err := e.Query(geom.UnitBox(), []object.DatasetID{0, 9})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range some {
		if o.Dataset != 0 {
			t.Fatalf("object from dataset %d returned", o.Dataset)
		}
	}
}

func TestNaiveScanFiltersByRange(t *testing.T) {
	raws := mkRaws(t, 1, 2000)
	e := NewNaiveScan(raws)
	q := geom.Cube(geom.V(0.5, 0.5, 0.5), 0.2)
	got, err := e.Query(q, []object.DatasetID{0})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range got {
		if !o.Intersects(q) {
			t.Fatalf("object %d does not intersect query", o.ID)
		}
	}
	// Cross-check the count against a direct scan.
	want := 0
	if err := raws[0].ScanRange(context.Background(), q, func(object.Object) error {
		want++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != want {
		t.Fatalf("%d objects, want %d", len(got), want)
	}
}

func TestSortObjects(t *testing.T) {
	objs := []object.Object{
		{ID: 2, Dataset: 1}, {ID: 1, Dataset: 0}, {ID: 1, Dataset: 1}, {ID: 3, Dataset: 0},
	}
	SortObjects(objs)
	want := []struct {
		ds object.DatasetID
		id uint64
	}{{0, 1}, {0, 3}, {1, 1}, {1, 2}}
	for i, w := range want {
		if objs[i].Dataset != w.ds || objs[i].ID != w.id {
			t.Fatalf("position %d: got (%d,%d)", i, objs[i].Dataset, objs[i].ID)
		}
	}
}

func TestSameObjects(t *testing.T) {
	a := []object.Object{{ID: 1}, {ID: 2, Dataset: 3}}
	b := []object.Object{{ID: 2, Dataset: 3}, {ID: 1}}
	if !SameObjects(append([]object.Object(nil), a...), append([]object.Object(nil), b...)) {
		t.Fatal("equal sets reported different")
	}
	if SameObjects(a, a[:1]) {
		t.Fatal("different lengths reported same")
	}
	c := []object.Object{{ID: 1}, {ID: 9}}
	if SameObjects(append([]object.Object(nil), a...), c) {
		t.Fatal("different sets reported same")
	}
}

// Property: SameObjects is order-insensitive for random permutations.
func TestSameObjectsPermutationProperty(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	base := make([]object.Object, 50)
	for i := range base {
		base[i] = object.Object{ID: uint64(i), Dataset: object.DatasetID(r.Intn(3))}
	}
	for trial := 0; trial < 50; trial++ {
		perm := append([]object.Object(nil), base...)
		r.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		if !SameObjects(append([]object.Object(nil), base...), perm) {
			t.Fatal("permutation reported different")
		}
	}
}
