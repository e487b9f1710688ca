package rtree

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

func TestNodeCodecRoundTrip(t *testing.T) {
	entries := []entry{
		{box: geom.NewBox(geom.V(0, 0, 0), geom.V(1, 2, 3)), child: 7},
		{box: geom.NewBox(geom.V(-5, -5, -5), geom.V(0, 0, 0)), child: 42},
	}
	page, err := encodeNode(entries, 3)
	if err != nil {
		t.Fatal(err)
	}
	got, level, err := decodeNode(page)
	if err != nil {
		t.Fatal(err)
	}
	if level != 3 || len(got) != 2 {
		t.Fatalf("level=%d len=%d", level, len(got))
	}
	for i := range entries {
		if got[i] != entries[i] {
			t.Fatalf("entry %d mismatch: %+v vs %+v", i, got[i], entries[i])
		}
	}
}

func TestNodeCodecErrors(t *testing.T) {
	if _, err := encodeNode(make([]entry, MaxFanout+1), 0); err == nil {
		t.Error("oversized node encoded")
	}
	if _, _, err := decodeNode(make([]byte, 10)); err == nil {
		t.Error("short buffer decoded")
	}
	page, err := encodeNode(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	page[0] = 0xFF
	if _, _, err := decodeNode(page); err == nil {
		t.Error("bad magic decoded")
	}
}

func TestSTRPackInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 62, 63, 64, 500, 4001} {
		objs := make([]object.Object, n)
		for i := range objs {
			objs[i] = object.Object{
				ID:     uint64(i),
				Center: geom.V(r.Float64(), r.Float64(), r.Float64()),
			}
		}
		leaves := STRPack(objs, 63)
		want := (n + 62) / 63
		if len(leaves) != want {
			t.Fatalf("n=%d: %d leaves, want %d", n, len(leaves), want)
		}
		seen := map[uint64]bool{}
		for _, leaf := range leaves {
			if len(leaf) == 0 || len(leaf) > 63 {
				t.Fatalf("n=%d: leaf size %d", n, len(leaf))
			}
			for _, o := range leaf {
				if seen[o.ID] {
					t.Fatalf("n=%d: object %d duplicated", n, o.ID)
				}
				seen[o.ID] = true
			}
		}
		if len(seen) != n {
			t.Fatalf("n=%d: packed %d objects", n, len(seen))
		}
	}
}

func TestSTRPackSpatialLocality(t *testing.T) {
	// STR leaves should have far smaller MBRs than random grouping.
	r := rand.New(rand.NewSource(2))
	n := 5000
	objs := make([]object.Object, n)
	for i := range objs {
		objs[i] = object.Object{
			ID:         uint64(i),
			Center:     geom.V(r.Float64(), r.Float64(), r.Float64()),
			HalfExtent: geom.V(1e-4, 1e-4, 1e-4),
		}
	}
	randomVol := leafVolume(append([]object.Object(nil), objs...), false)
	strVol := leafVolume(append([]object.Object(nil), objs...), true)
	if strVol*10 > randomVol {
		t.Fatalf("STR leaf volume %g not ≪ random %g", strVol, randomVol)
	}
}

func leafVolume(objs []object.Object, str bool) float64 {
	var groups [][]object.Object
	if str {
		groups = STRPack(objs, 63)
	} else {
		for off := 0; off < len(objs); off += 63 {
			end := off + 63
			if end > len(objs) {
				end = len(objs)
			}
			groups = append(groups, objs[off:end])
		}
	}
	var total float64
	for _, g := range groups {
		mbr := g[0].Box()
		for _, o := range g[1:] {
			mbr = mbr.Union(o.Box())
		}
		total += mbr.Volume()
	}
	return total
}

func buildTestTree(t *testing.T, n int, seed int64) (*Tree, []object.Object, *simdisk.Device) {
	t.Helper()
	dev := simdisk.NewDeviceChannels(simdisk.CostModel{}, 0, 1)
	objs := datagen.Generate(datagen.Config{Seed: seed, NumObjects: n}, 1)
	cp := append([]object.Object(nil), objs...)
	tree, err := Build(dev, "t", cp, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return tree, objs, dev
}

func TestBuildAndQueryMatchesNaive(t *testing.T) {
	tree, objs, _ := buildTestTree(t, 6000, 3)
	if tree.NumObjects() != 6000 {
		t.Fatalf("NumObjects = %d", tree.NumObjects())
	}
	if tree.Height() < 1 {
		t.Fatalf("Height = %d", tree.Height())
	}
	r := rand.New(rand.NewSource(4))
	for trial := 0; trial < 50; trial++ {
		side := 0.01 + r.Float64()*0.2
		q, ok := geom.Cube(geom.V(r.Float64(), r.Float64(), r.Float64()), side).Intersection(geom.UnitBox())
		if !ok {
			continue
		}
		got, err := tree.Query(q, nil)
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
			t.Fatalf("trial %d: rtree %d, naive %d", trial, len(got), len(want))
		}
	}
}

func TestEmptyTree(t *testing.T) {
	dev := simdisk.NewDeviceChannels(simdisk.CostModel{}, 0, 1)
	tree, err := Build(dev, "e", nil, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	got, err := tree.Query(geom.UnitBox(), nil)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty tree query: %v, %d objects", err, len(got))
	}
	boxes, pages, err := tree.LeafMBRs()
	if err != nil || len(boxes) != 0 || len(pages) != 0 {
		t.Fatal("empty tree has leaves")
	}
}

func TestSingleObjectTree(t *testing.T) {
	dev := simdisk.NewDeviceChannels(simdisk.CostModel{}, 0, 1)
	objs := []object.Object{{ID: 9, Center: geom.V(0.5, 0.5, 0.5), HalfExtent: geom.V(0.01, 0.01, 0.01)}}
	tree, err := Build(dev, "s", objs, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	got, err := tree.Query(geom.UnitBox(), nil)
	if err != nil || len(got) != 1 || got[0].ID != 9 {
		t.Fatalf("single-object query: %v %v", got, err)
	}
	if got, err := tree.Query(geom.Cube(geom.V(0.1, 0.1, 0.1), 0.01), nil); err != nil || len(got) != 0 {
		t.Fatalf("miss query: %v %v", got, err)
	}
}

func TestLeafMBRsInvariant(t *testing.T) {
	tree, objs, _ := buildTestTree(t, 3000, 5)
	boxes, pages, err := tree.LeafMBRs()
	if err != nil {
		t.Fatal(err)
	}
	if len(boxes) != tree.NumLeaves() || len(pages) != tree.NumLeaves() {
		t.Fatalf("%d MBRs, %d pages, want %d", len(boxes), len(pages), tree.NumLeaves())
	}
	// Every object's box must be contained in at least one leaf MBR.
	for _, o := range objs[:200] {
		found := false
		for _, b := range boxes {
			if b.Union(o.Box()) == b {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("object %d box not covered by any leaf MBR", o.ID)
		}
	}
	// Root bounds contain all leaf MBRs.
	for _, b := range boxes {
		if tree.Bounds().Union(b) != tree.Bounds() {
			t.Fatalf("leaf MBR %v outside root bounds %v", b, tree.Bounds())
		}
	}
}

func TestBuildChargesSortPasses(t *testing.T) {
	cost := simdisk.CostModel{Seek: 0, Transfer: 1}
	mk := func(passes int) int64 {
		dev := simdisk.NewDeviceChannels(cost, 0, 1)
		objs := datagen.Generate(datagen.Config{Seed: 6, NumObjects: 6300}, 1)
		cfg := DefaultConfig()
		cfg.SortPasses = passes
		if _, err := Build(dev, "t", objs, cfg); err != nil {
			t.Fatal(err)
		}
		return int64(dev.Clock())
	}
	none := mk(0)
	three := mk(3)
	pages := object.PagesFor(6300)
	// Each pass adds a write+read of all data pages.
	wantDelta := int64(3 * 2 * pages)
	if got := three - none; got != wantDelta {
		t.Fatalf("sort charge = %d transfers, want %d", got, wantDelta)
	}
}

func TestConfigValidation(t *testing.T) {
	dev := simdisk.NewDeviceChannels(simdisk.CostModel{}, 0, 1)
	for _, cfg := range []Config{
		{Fanout: 1}, {Fanout: MaxFanout + 1},
		{LeafCapacity: -1}, {LeafCapacity: object.PageCapacity + 1},
		{SortPasses: -1},
	} {
		if _, err := Build(dev, "x", nil, cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

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

func TestStrategiesMatchOracle(t *testing.T) {
	dev := simdisk.NewDeviceChannels(simdisk.CostModel{}, 0, 1)
	raws := mkRaws(t, dev, 4, 1200, 7)
	oracle := engine.NewNaiveScan(raws)

	ain1 := NewAllInOne(dev, raws, DefaultConfig())
	ofe := NewOneForEach(dev, raws, DefaultConfig())
	if ain1.Name() != "RTree-Ain1" || ofe.Name() != "RTree-1fE" {
		t.Fatal("strategy names wrong")
	}
	if _, err := ain1.Query(geom.UnitBox(), nil); err == nil {
		t.Fatal("Ain1 query before build succeeded")
	}
	if _, err := ofe.Query(geom.UnitBox(), nil); err == nil {
		t.Fatal("1fE query before build succeeded")
	}
	if err := ain1.Build(); err != nil {
		t.Fatal(err)
	}
	if err := ofe.Build(); err != nil {
		t.Fatal(err)
	}

	r := rand.New(rand.NewSource(8))
	for trial := 0; trial < 25; trial++ {
		q, ok := geom.Cube(geom.V(r.Float64(), r.Float64(), r.Float64()), 0.12).Intersection(geom.UnitBox())
		if !ok {
			continue
		}
		dss := []object.DatasetID{object.DatasetID(r.Intn(4)), object.DatasetID((r.Intn(4)))}
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
			t.Fatalf("trial %d: Ain1 %d objects, oracle %d", trial, len(a), len(want))
		}
		b, err := ofe.Query(q, dss)
		if err != nil {
			t.Fatal(err)
		}
		if !engine.SameObjects(b, want) {
			t.Fatalf("trial %d: 1fE %d objects, oracle %d", trial, len(b), len(want))
		}
	}
	if _, err := ofe.Query(geom.UnitBox(), []object.DatasetID{77}); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestBuildIsIdempotent(t *testing.T) {
	dev := simdisk.NewDeviceChannels(simdisk.CostModel{Seek: 1, Transfer: 1}, 0, 1)
	raws := mkRaws(t, dev, 2, 300, 9)
	eng := NewAllInOne(dev, raws, DefaultConfig())
	if err := eng.Build(); err != nil {
		t.Fatal(err)
	}
	clock := dev.Clock()
	if err := eng.Build(); err != nil {
		t.Fatal(err)
	}
	if dev.Clock() != clock {
		t.Fatal("second Build performed I/O")
	}
}
