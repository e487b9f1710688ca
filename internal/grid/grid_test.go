package grid

import (
	"context"
	"math/rand"
	"testing"

	"spaceodyssey/internal/datagen"
	"spaceodyssey/internal/engine"
	"spaceodyssey/internal/geom"
	"spaceodyssey/internal/object"
	"spaceodyssey/internal/rawfile"
	"spaceodyssey/internal/simdisk"
)

func mkRaws(t *testing.T, dev *simdisk.Device, n, perDS int, seed int64) []*rawfile.Raw {
	t.Helper()
	dss := datagen.GenerateDatasets(datagen.Config{Seed: seed, NumObjects: perDS}, n)
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

func TestConfigValidation(t *testing.T) {
	dev := simdisk.NewDeviceChannels(simdisk.CostModel{}, 0, 1)
	raws := mkRaws(t, dev, 1, 10, 1)
	if _, err := NewIndex(dev, raws, geom.UnitBox(), Config{CellsPerDim: -1}); err == nil {
		t.Error("negative CellsPerDim accepted")
	}
	if _, err := NewIndex(dev, raws, geom.Box{}, Config{CellsPerDim: 60}); err == nil {
		t.Error("zero-volume bounds accepted")
	}
}

func TestQueryBeforeBuildFails(t *testing.T) {
	dev := simdisk.NewDeviceChannels(simdisk.CostModel{}, 0, 1)
	raws := mkRaws(t, dev, 1, 10, 2)
	idx, err := NewIndex(dev, raws, geom.UnitBox(), Config{CellsPerDim: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := idx.Query(geom.UnitBox(), nil); err == nil {
		t.Fatal("query before build succeeded")
	}
}

func TestIndexMatchesNaiveScan(t *testing.T) {
	dev := simdisk.NewDeviceChannels(simdisk.CostModel{}, 0, 1)
	raws := mkRaws(t, dev, 1, 4000, 3)
	idx, err := NewIndex(dev, raws, geom.UnitBox(), Config{CellsPerDim: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.Build(); err != nil {
		t.Fatal(err)
	}
	if idx.NumObjects() != 4000 {
		t.Fatalf("NumObjects = %d", idx.NumObjects())
	}
	r := rand.New(rand.NewSource(4))
	for trial := 0; trial < 50; trial++ {
		side := 0.01 + r.Float64()*0.3
		c := geom.V(r.Float64(), r.Float64(), r.Float64())
		q, ok := geom.Cube(c, side).Intersection(geom.UnitBox())
		if !ok {
			continue
		}
		got, err := idx.Query(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		var want []object.Object
		if err := raws[0].ScanRange(context.Background(), q, func(o object.Object) error {
			want = append(want, o)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if !engine.SameObjects(got, want) {
			t.Fatalf("trial %d: grid %d objects, naive %d", trial, len(got), len(want))
		}
	}
}

func TestMemBudgetCausesFragmentation(t *testing.T) {
	devA := simdisk.NewDeviceChannels(simdisk.CostModel{}, 0, 1)
	rawsA := mkRaws(t, devA, 1, 5000, 5)
	big, err := NewIndex(devA, rawsA, geom.UnitBox(), Config{CellsPerDim: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := big.Build(); err != nil {
		t.Fatal(err)
	}

	devB := simdisk.NewDeviceChannels(simdisk.CostModel{}, 0, 1)
	rawsB := mkRaws(t, devB, 1, 5000, 5)
	small, err := NewIndex(devB, rawsB, geom.UnitBox(),
		Config{CellsPerDim: 2, MemBudgetObjects: 500})
	if err != nil {
		t.Fatal(err)
	}
	if err := small.Build(); err != nil {
		t.Fatal(err)
	}

	p := geom.V(0.25, 0.25, 0.25)
	if big.CellRuns(p) != 1 {
		t.Fatalf("unbudgeted build produced %d runs", big.CellRuns(p))
	}
	if small.CellRuns(p) <= big.CellRuns(p) {
		t.Fatalf("budgeted build should fragment: %d runs vs %d",
			small.CellRuns(p), big.CellRuns(p))
	}

	// Both must return identical results.
	q := geom.NewBox(geom.V(0.1, 0.1, 0.1), geom.V(0.4, 0.4, 0.4))
	a, err := big.Query(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := small.Query(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !engine.SameObjects(a, b) {
		t.Fatal("fragmented grid returns different results")
	}
}

func TestOneForEachMatchesOracle(t *testing.T) {
	dev := simdisk.NewDeviceChannels(simdisk.CostModel{}, 0, 1)
	raws := mkRaws(t, dev, 4, 1500, 6)
	eng, err := NewOneForEach(dev, raws, geom.UnitBox(), Config{CellsPerDim: 6})
	if err != nil {
		t.Fatal(err)
	}
	if eng.Name() != "Grid-1fE" {
		t.Fatalf("Name = %q", eng.Name())
	}
	if err := eng.Build(); err != nil {
		t.Fatal(err)
	}
	oracle := engine.NewNaiveScan(raws)
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		q, ok := geom.Cube(geom.V(r.Float64(), r.Float64(), r.Float64()), 0.1).Intersection(geom.UnitBox())
		if !ok {
			continue
		}
		dss := []object.DatasetID{object.DatasetID(r.Intn(4)), object.DatasetID(r.Intn(4))}
		if dss[0] == dss[1] {
			dss = dss[:1]
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
			t.Fatalf("trial %d: 1fE %d objects, oracle %d", trial, len(got), len(want))
		}
	}
}

func TestOneForEachUnknownDataset(t *testing.T) {
	dev := simdisk.NewDeviceChannels(simdisk.CostModel{}, 0, 1)
	raws := mkRaws(t, dev, 2, 100, 8)
	eng, err := NewOneForEach(dev, raws, geom.UnitBox(), Config{CellsPerDim: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Build(); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Query(geom.UnitBox(), []object.DatasetID{99}); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestAllInOneFiltersDatasets(t *testing.T) {
	dev := simdisk.NewDeviceChannels(simdisk.CostModel{}, 0, 1)
	raws := mkRaws(t, dev, 4, 1500, 9)
	eng, err := NewAllInOne(dev, raws, geom.UnitBox(), Config{CellsPerDim: 6})
	if err != nil {
		t.Fatal(err)
	}
	if eng.Name() != "Grid-Ain1" {
		t.Fatalf("Name = %q", eng.Name())
	}
	if err := eng.Build(); err != nil {
		t.Fatal(err)
	}
	oracle := engine.NewNaiveScan(raws)
	r := rand.New(rand.NewSource(10))
	for trial := 0; trial < 30; trial++ {
		q, ok := geom.Cube(geom.V(r.Float64(), r.Float64(), r.Float64()), 0.15).Intersection(geom.UnitBox())
		if !ok {
			continue
		}
		dss := []object.DatasetID{object.DatasetID(r.Intn(4))}
		got, err := eng.Query(q, dss)
		if err != nil {
			t.Fatal(err)
		}
		want, err := oracle.Query(q, dss)
		if err != nil {
			t.Fatal(err)
		}
		if !engine.SameObjects(got, want) {
			t.Fatalf("trial %d: Ain1 %d objects, oracle %d", trial, len(got), len(want))
		}
		for _, o := range got {
			if o.Dataset != dss[0] {
				t.Fatalf("dataset filter leaked object from %d", o.Dataset)
			}
		}
	}
}

func TestReplicatingGridMatchesOracle(t *testing.T) {
	dev := simdisk.NewDeviceChannels(simdisk.CostModel{}, 0, 1)
	raws := mkRaws(t, dev, 1, 3000, 12)
	idx, err := NewIndex(dev, raws, geom.UnitBox(), Config{CellsPerDim: 6, Replicate: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.Build(); err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 40; trial++ {
		side := 0.01 + r.Float64()*0.3
		q, ok := geom.Cube(geom.V(r.Float64(), r.Float64(), r.Float64()), side).Intersection(geom.UnitBox())
		if !ok {
			continue
		}
		got, err := idx.Query(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		var want []object.Object
		if err := raws[0].ScanRange(context.Background(), q, func(o object.Object) error {
			want = append(want, o)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if !engine.SameObjects(got, want) {
			t.Fatalf("trial %d: replicated grid %d objects, naive %d (duplicates?)",
				trial, len(got), len(want))
		}
	}
}

func TestReplicationUsesMoreSpace(t *testing.T) {
	// Objects spanning cell boundaries are stored once per overlapped cell,
	// so the replicated grid writes strictly more pages.
	build := func(replicate bool) int64 {
		dev := simdisk.NewDeviceChannels(simdisk.CostModel{}, 0, 1)
		// Objects a third of a cell wide straddle boundaries frequently.
		objs := datagen.Generate(datagen.Config{
			Seed: 14, NumObjects: 4000, ObjectSizeFrac: 0.02,
		}, 0)
		raw, err := rawfile.Write(dev, "ds", 0, objs)
		if err != nil {
			t.Fatal(err)
		}
		idx, err := NewIndex(dev, []*rawfile.Raw{raw}, geom.UnitBox(),
			Config{CellsPerDim: 16, Replicate: replicate})
		if err != nil {
			t.Fatal(err)
		}
		if err := idx.Build(); err != nil {
			t.Fatal(err)
		}
		n, err := idx.file.NumPages()
		if err != nil {
			t.Fatal(err)
		}
		return raw.NumPages() + n
	}
	plain := build(false)
	repl := build(true)
	if repl <= plain {
		t.Fatalf("replication pages %d <= extension pages %d", repl, plain)
	}
}

func TestBuildIsIdempotent(t *testing.T) {
	dev := simdisk.NewDeviceChannels(simdisk.CostModel{Seek: 1, Transfer: 1}, 0, 1)
	raws := mkRaws(t, dev, 1, 500, 11)
	idx, err := NewIndex(dev, raws, geom.UnitBox(), Config{CellsPerDim: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.Build(); err != nil {
		t.Fatal(err)
	}
	clock := dev.Clock()
	if err := idx.Build(); err != nil {
		t.Fatal(err)
	}
	if dev.Clock() != clock {
		t.Fatal("second Build performed I/O")
	}
}
