package flat

import (
	"math/rand"
	"testing"

	"spaceodyssey/internal/datagen"
	"spaceodyssey/internal/engine"
	"spaceodyssey/internal/geom"
	"spaceodyssey/internal/object"
	"spaceodyssey/internal/rawfile"
	"spaceodyssey/internal/simdisk"
)

func buildTestIndex(t *testing.T, n int, seed int64, cfg Config) (*Index, []object.Object, *simdisk.Device) {
	t.Helper()
	dev := simdisk.NewDeviceChannels(simdisk.CostModel{}, 0, 1)
	objs := datagen.Generate(datagen.Config{Seed: seed, NumObjects: n, Clusters: 6}, 1)
	cp := append([]object.Object(nil), objs...)
	idx, err := BuildIndex(dev, "f", cp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return idx, objs, dev
}

func TestBuildBasics(t *testing.T) {
	idx, _, _ := buildTestIndex(t, 4000, 1, DefaultConfig())
	if idx.NumObjects() != 4000 {
		t.Fatalf("NumObjects = %d", idx.NumObjects())
	}
	want := (4000 + object.PageCapacity - 1) / object.PageCapacity
	if idx.NumLeaves() != want {
		t.Fatalf("NumLeaves = %d, want %d", idx.NumLeaves(), want)
	}
}

func TestQueryMatchesNaive(t *testing.T) {
	idx, objs, _ := buildTestIndex(t, 6000, 2, DefaultConfig())
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 60; trial++ {
		side := 0.01 + r.Float64()*0.25
		q, ok := geom.Cube(geom.V(r.Float64(), r.Float64(), r.Float64()), side).Intersection(geom.UnitBox())
		if !ok {
			continue
		}
		got, err := idx.Query(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		var want []object.Object
		for _, o := range objs {
			if o.Intersects(q) {
				want = append(want, o)
			}
		}
		if !engine.SameObjects(got, want) {
			t.Fatalf("trial %d: flat %d objects, naive %d (misses=%d)",
				trial, len(got), len(want), idx.CrawlMisses)
		}
	}
}

func TestCrawlFindsAlmostEverything(t *testing.T) {
	// The neighbor graph should serve nearly all queries without the
	// paranoid rescue; a high miss count means the crawl is broken and the
	// performance profile no longer resembles FLAT.
	idx, _, _ := buildTestIndex(t, 8000, 4, DefaultConfig())
	r := rand.New(rand.NewSource(5))
	queries := 0
	for trial := 0; trial < 100; trial++ {
		q, ok := geom.Cube(geom.V(r.Float64(), r.Float64(), r.Float64()), 0.05).Intersection(geom.UnitBox())
		if !ok {
			continue
		}
		queries++
		if _, err := idx.Query(q, nil); err != nil {
			t.Fatal(err)
		}
	}
	if idx.CrawlMisses > queries/2 {
		t.Fatalf("crawl missed %d leaves over %d queries", idx.CrawlMisses, queries)
	}
}

func TestEmptyRegionQueryIsCheap(t *testing.T) {
	// Data confined to a corner; queries elsewhere must return nothing and
	// read almost nothing (the seed probe proves emptiness).
	dev := simdisk.NewDeviceChannels(simdisk.CostModel{Seek: 1000, Transfer: 1}, 0, 1)
	objs := datagen.Generate(datagen.Config{
		Seed: 6, NumObjects: 3000,
		Bounds:         geom.NewBox(geom.V(0, 0, 0), geom.V(0.2, 0.2, 0.2)),
		BackgroundFrac: -1,
	}, 1)
	idx, err := BuildIndex(dev, "f", objs, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	dev.DropCaches()
	dev.ResetClock()
	dev.ResetStats()
	got, err := idx.Query(geom.Cube(geom.V(0.8, 0.8, 0.8), 0.05), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("found %d objects in empty space", len(got))
	}
	st := dev.Stats()
	if st.PageReads > 5 {
		t.Fatalf("empty-region query read %d pages", st.PageReads)
	}
}

func TestEmptyIndex(t *testing.T) {
	dev := simdisk.NewDeviceChannels(simdisk.CostModel{}, 0, 1)
	idx, err := BuildIndex(dev, "e", nil, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	got, err := idx.Query(geom.UnitBox(), nil)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty index query: %v %d", err, len(got))
	}
}

func TestConfigValidation(t *testing.T) {
	dev := simdisk.NewDeviceChannels(simdisk.CostModel{}, 0, 1)
	bad := []Config{
		{LeafCapacity: -1},
		{LeafCapacity: object.PageCapacity + 1},
		{MaxNeighbors: 1},
		{SortPasses: -2},
	}
	for i, cfg := range bad {
		if _, err := BuildIndex(dev, "x", nil, cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestAdjacencyRoundTrip(t *testing.T) {
	dev := simdisk.NewDeviceChannels(simdisk.CostModel{}, 0, 1)
	lists := [][]uint32{
		{1},
		{0, 2},
		{}, // empty list must round-trip too
	}
	s, err := buildAdjacency(dev, "adj", lists)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range lists {
		got, err := s.neighbors(i)
		if err != nil {
			t.Fatalf("leaf %d: %v", i, err)
		}
		if len(got) != len(want) {
			t.Fatalf("leaf %d: %d neighbors, want %d", i, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("leaf %d neighbor %d mismatch", i, j)
			}
		}
	}
	if _, err := s.neighbors(99); err == nil {
		t.Fatal("out-of-range leaf accepted")
	}
}

func TestAdjacencyPacksManyRecords(t *testing.T) {
	// Enough records to span multiple pages: each record is 4+n*4 bytes,
	// so 5000 records of 150 neighbors each need several pages.
	dev := simdisk.NewDeviceChannels(simdisk.CostModel{}, 0, 1)
	n := 5000
	lists := make([][]uint32, n)
	for i := range lists {
		for j := 0; j < 150; j++ {
			lists[i] = append(lists[i], uint32((i+j+1)%n))
		}
	}
	s, err := buildAdjacency(dev, "adj", lists)
	if err != nil {
		t.Fatal(err)
	}
	pages, err := dev.NumPages(s.file)
	if err != nil {
		t.Fatal(err)
	}
	if pages < 2 {
		t.Fatalf("expected multiple adjacency pages, got %d", pages)
	}
	for _, i := range []int{0, 2500, 4999} {
		got, err := s.neighbors(i)
		if err != nil || len(got) != 150 {
			t.Fatalf("leaf %d: %v, %d neighbors", i, err, len(got))
		}
	}
}

func TestAdjacencyRejectsOversizedRecord(t *testing.T) {
	dev := simdisk.NewDeviceChannels(simdisk.CostModel{}, 0, 1)
	huge := make([]uint32, simdisk.PageSize) // record > one page
	if _, err := buildAdjacency(dev, "adj", [][]uint32{huge}); err == nil {
		t.Fatal("oversized record accepted")
	}
}

func TestStrategiesMatchOracle(t *testing.T) {
	dev := simdisk.NewDeviceChannels(simdisk.CostModel{}, 0, 1)
	dss := datagen.GenerateDatasets(datagen.Config{Seed: 7, NumObjects: 1500}, 4)
	raws := make([]*rawfile.Raw, 4)
	for i, objs := range dss {
		raw, err := rawfile.Write(dev, "ds", object.DatasetID(i), objs)
		if err != nil {
			t.Fatal(err)
		}
		raws[i] = raw
	}
	oracle := engine.NewNaiveScan(raws)

	ain1 := NewAllInOne(dev, raws, DefaultConfig())
	ofe := NewOneForEach(dev, raws, DefaultConfig())
	if ain1.Name() != "FLAT-Ain1" || ofe.Name() != "FLAT-1fE" {
		t.Fatal("strategy names wrong")
	}
	if _, err := ain1.Query(geom.UnitBox(), nil); err == nil {
		t.Fatal("query before build succeeded")
	}
	if _, err := ofe.Query(geom.UnitBox(), nil); err == nil {
		t.Fatal("query before build succeeded")
	}
	if err := ain1.Build(); err != nil {
		t.Fatal(err)
	}
	if err := ofe.Build(); err != nil {
		t.Fatal(err)
	}

	r := rand.New(rand.NewSource(8))
	for trial := 0; trial < 25; trial++ {
		q, ok := geom.Cube(geom.V(r.Float64(), r.Float64(), r.Float64()), 0.1).Intersection(geom.UnitBox())
		if !ok {
			continue
		}
		dss := []object.DatasetID{object.DatasetID(r.Intn(4)), object.DatasetID(r.Intn(4))}
		if dss[0] == dss[1] {
			dss = dss[:1]
		}
		want, err := oracle.Query(q, dss)
		if err != nil {
			t.Fatal(err)
		}
		a, err := ain1.Query(q, dss)
		if err != nil {
			t.Fatal(err)
		}
		if !engine.SameObjects(a, append([]object.Object(nil), want...)) {
			t.Fatalf("trial %d: Ain1 mismatch (%d vs %d)", trial, len(a), len(want))
		}
		b, err := ofe.Query(q, dss)
		if err != nil {
			t.Fatal(err)
		}
		if !engine.SameObjects(b, want) {
			t.Fatalf("trial %d: 1fE mismatch (%d vs %d)", trial, len(b), len(want))
		}
	}
	if _, err := ofe.Query(geom.UnitBox(), []object.DatasetID{42}); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestFlatQueryCheaperThanGridStyleRead(t *testing.T) {
	// Once built, FLAT must answer small queries with very few page reads —
	// the property that makes it the paper's fastest-querying baseline.
	cost := simdisk.CostModel{Seek: 1000, Transfer: 1}
	dev := simdisk.NewDeviceChannels(cost, 0, 1)
	objs := datagen.Generate(datagen.Config{Seed: 9, NumObjects: 20000, Clusters: 6}, 1)
	idx, err := BuildIndex(dev, "f", objs, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Query centered on a data cluster.
	q, ok := geom.Cube(objs[0].Center, 0.02).Intersection(geom.UnitBox())
	if !ok {
		t.Fatal("query construction failed")
	}
	dev.DropCaches()
	dev.ResetStats()
	if _, err := idx.Query(q, nil); err != nil {
		t.Fatal(err)
	}
	st := dev.Stats()
	if st.PageReads > 40 {
		t.Fatalf("small query read %d pages; FLAT should touch few", st.PageReads)
	}
}
