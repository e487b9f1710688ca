package core

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"spaceodyssey/internal/datagen"
	"spaceodyssey/internal/engine"
	"spaceodyssey/internal/geom"
	"spaceodyssey/internal/object"
	"spaceodyssey/internal/rawfile"
	"spaceodyssey/internal/simdisk"
)

// testSetup creates n datasets on a fresh device plus the engine.
func testSetup(t *testing.T, n, perDS int, seed int64, cfg Config) (*Odyssey, []*rawfile.Raw, *simdisk.Device) {
	t.Helper()
	dev := simdisk.NewDeviceChannels(simdisk.CostModel{}, 0, 1)
	dss := datagen.GenerateDatasets(datagen.Config{Seed: seed, NumObjects: perDS, Clusters: 6}, n)
	raws := make([]*rawfile.Raw, n)
	for i, objs := range dss {
		raw, err := rawfile.Write(dev, "ds", object.DatasetID(i), objs)
		if err != nil {
			t.Fatal(err)
		}
		raws[i] = raw
	}
	eng, err := New(dev, raws, geom.UnitBox(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng, raws, dev
}

func TestNewRejectsDuplicateDatasets(t *testing.T) {
	dev := simdisk.NewDeviceChannels(simdisk.CostModel{}, 0, 1)
	objs := datagen.Generate(datagen.Config{Seed: 1, NumObjects: 10}, 3)
	a, err := rawfile.Write(dev, "a", 3, objs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := rawfile.Write(dev, "b", 3, objs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(dev, []*rawfile.Raw{a, b}, geom.UnitBox(), DefaultConfig()); err == nil {
		t.Fatal("duplicate dataset accepted")
	}
}

func TestUnknownDatasetRejected(t *testing.T) {
	eng, _, _ := testSetup(t, 2, 100, 2, DefaultConfig())
	if _, err := eng.Query(geom.UnitBox(), []object.DatasetID{7}); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestBuildIsNoOp(t *testing.T) {
	eng, _, _ := testSetup(t, 1, 10, 3, DefaultConfig())
	if err := eng.Build(); err != nil {
		t.Fatal("Build must be a no-op")
	}
}

func TestKeyOfCanonical(t *testing.T) {
	a := KeyOf([]object.DatasetID{3, 1, 2})
	b := KeyOf([]object.DatasetID{2, 3, 1})
	if a != b || a != ComboKey("1,2,3") {
		t.Fatalf("keys %q %q", a, b)
	}
}

// TestQueryMatchesOracle is the central equivalence test: random workloads
// over multiple datasets, with merging active, must return exactly the
// oracle's results.
func TestQueryMatchesOracle(t *testing.T) {
	cfg := DefaultConfig()
	eng, raws, _ := testSetup(t, 5, 2500, 4, cfg)
	oracle := engine.NewNaiveScan(raws)
	r := rand.New(rand.NewSource(5))
	clusters := []geom.Vec{
		geom.V(0.3, 0.3, 0.3), geom.V(0.7, 0.6, 0.4),
	}
	combos := map[ComboKey]bool{}
	for trial := 0; trial < 120; trial++ {
		// Mix clustered queries (drive refinement + merging) with uniform.
		var c geom.Vec
		if r.Intn(3) > 0 {
			base := clusters[r.Intn(len(clusters))]
			c = geom.V(base.X+r.NormFloat64()*0.05, base.Y+r.NormFloat64()*0.05, base.Z+r.NormFloat64()*0.05)
		} else {
			c = geom.V(r.Float64(), r.Float64(), r.Float64())
		}
		side := 0.01 + r.Float64()*0.08
		q, ok := geom.Cube(c, side).Intersection(geom.UnitBox())
		if !ok || q.Volume() == 0 {
			continue
		}
		k := 1 + r.Intn(5)
		seen := map[object.DatasetID]bool{}
		var dss []object.DatasetID
		for len(dss) < k {
			ds := object.DatasetID(r.Intn(5))
			if !seen[ds] {
				seen[ds] = true
				dss = append(dss, ds)
			}
		}
		// Every fifth query names its first dataset twice: a dataset is one
		// member of the combination however often it is listed.
		asked := dss
		if trial%5 == 0 {
			asked = append(append([]object.DatasetID(nil), dss...), dss[0])
		}
		combos[KeyOf(dss)] = true
		got, err := eng.Query(q, asked)
		if err != nil {
			t.Fatal(err)
		}
		want, err := oracle.Query(q, dss)
		if err != nil {
			t.Fatal(err)
		}
		if !engine.SameObjects(got, want) {
			t.Fatalf("trial %d: odyssey %d objects, oracle %d (q=%v dss=%v)",
				trial, len(got), len(want), q, asked)
		}
	}
	m := eng.Metrics()
	if m.Queries == 0 || m.Refinements == 0 {
		t.Fatalf("suspicious metrics: %+v", m)
	}
	if n := len(eng.combos); n != len(combos) {
		t.Fatalf("the engine holds %d combination records, the workload has %d distinct dataset sets", n, len(combos))
	}
}

func TestLazyIndexing(t *testing.T) {
	eng, _, dev := testSetup(t, 4, 1000, 6, DefaultConfig())
	dev.ResetStats()
	if st := dev.Stats(); st.PageReads != 0 {
		t.Fatal("engine did I/O before any query")
	}
	// A query touching datasets 0 and 1 must not build trees 2 and 3.
	q := geom.Cube(geom.V(0.5, 0.5, 0.5), 0.05)
	if _, err := eng.Query(q, []object.DatasetID{0, 1}); err != nil {
		t.Fatal(err)
	}
	if !eng.Tree(0).Built() || !eng.Tree(1).Built() {
		t.Fatal("queried trees not built")
	}
	if eng.Tree(2).Built() || eng.Tree(3).Built() {
		t.Fatal("unqueried trees were built")
	}
	if got := eng.Metrics().TreesBuilt; got != 2 {
		t.Fatalf("TreesBuilt = %d", got)
	}
}

func TestMergeHappensAfterThreshold(t *testing.T) {
	cfg := DefaultConfig()
	eng, _, _ := testSetup(t, 4, 2000, 7, cfg)
	q := geom.Cube(geom.V(0.4, 0.4, 0.4), 0.06)
	dss := []object.DatasetID{0, 1, 2}

	if _, err := eng.Query(q, dss); err != nil {
		t.Fatal(err)
	}
	if eng.Merger().NumFiles() != 0 {
		t.Fatal("merged after one query (mt=2)")
	}
	if _, err := eng.Query(q, dss); err != nil {
		t.Fatal(err)
	}
	if eng.Merger().NumFiles() != 1 {
		t.Fatalf("merge files = %d after threshold", eng.Merger().NumFiles())
	}
	m := eng.Metrics()
	if m.MergeFilesCreated != 1 || m.PartitionsMerged == 0 {
		t.Fatalf("metrics = %+v", m)
	}

	// Subsequent identical queries must be served from the merge file.
	if _, err := eng.Query(q, dss); err != nil {
		t.Fatal(err)
	}
	m = eng.Metrics()
	if m.PartitionsFromMerge == 0 {
		t.Fatal("no partitions served from merge file")
	}
	if m.RelationCounts[RelExact] == 0 {
		t.Fatalf("no exact-relation lookups: %+v", m.RelationCounts)
	}
}

func TestSmallCombinationsNeverMerge(t *testing.T) {
	cfg := DefaultConfig() // MinCombination = 3
	eng, _, _ := testSetup(t, 3, 1500, 8, cfg)
	q := geom.Cube(geom.V(0.5, 0.5, 0.5), 0.05)
	for i := 0; i < 5; i++ {
		if _, err := eng.Query(q, []object.DatasetID{0, 1}); err != nil {
			t.Fatal(err)
		}
	}
	if eng.Merger().NumFiles() != 0 {
		t.Fatal("|C|=2 combination was merged")
	}
}

func TestDisableMerging(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DisableMerging = true
	eng, raws, _ := testSetup(t, 4, 1500, 9, cfg)
	oracle := engine.NewNaiveScan(raws)
	q := geom.Cube(geom.V(0.5, 0.5, 0.5), 0.05)
	dss := []object.DatasetID{0, 1, 2, 3}
	for i := 0; i < 5; i++ {
		got, err := eng.Query(q, dss)
		if err != nil {
			t.Fatal(err)
		}
		want, err := oracle.Query(q, dss)
		if err != nil {
			t.Fatal(err)
		}
		if !engine.SameObjects(got, want) {
			t.Fatal("no-merge engine returns wrong results")
		}
	}
	if eng.Merger().NumFiles() != 0 {
		t.Fatal("merging happened despite DisableMerging")
	}
	if eng.Metrics().PartitionsFromMerge != 0 {
		t.Fatal("merge serves counted despite DisableMerging")
	}
}

func TestSupersetAndSubsetRouting(t *testing.T) {
	cfg := DefaultConfig()
	eng, raws, _ := testSetup(t, 5, 2000, 10, cfg)
	oracle := engine.NewNaiveScan(raws)
	q := geom.Cube(geom.V(0.45, 0.45, 0.45), 0.06)
	full := []object.DatasetID{0, 1, 2, 3}

	// Create a merge file for {0,1,2,3}.
	for i := 0; i < 2; i++ {
		if _, err := eng.Query(q, full); err != nil {
			t.Fatal(err)
		}
	}
	if eng.Merger().NumFiles() != 1 {
		t.Fatalf("merge files = %d", eng.Merger().NumFiles())
	}

	// Subset query {0,1,2} routes through the superset merge file.
	sub := []object.DatasetID{0, 1, 2}
	got, err := eng.Query(q, sub)
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracle.Query(q, sub)
	if err != nil {
		t.Fatal(err)
	}
	if !engine.SameObjects(got, want) {
		t.Fatal("superset-routed query wrong")
	}
	if eng.Metrics().RelationCounts[RelSuperset] == 0 {
		t.Fatalf("superset routing unused: %+v", eng.Metrics().RelationCounts)
	}

	// Query for {0,1,2,3,4}: the merge file is a subset; dataset 4 comes
	// from its own tree.
	allds := []object.DatasetID{0, 1, 2, 3, 4}
	got, err = eng.Query(q, allds)
	if err != nil {
		t.Fatal(err)
	}
	want, err = oracle.Query(q, allds)
	if err != nil {
		t.Fatal(err)
	}
	if !engine.SameObjects(got, want) {
		t.Fatal("subset-routed query wrong")
	}
	if eng.Metrics().RelationCounts[RelSubset] == 0 {
		t.Fatalf("subset routing unused: %+v", eng.Metrics().RelationCounts)
	}
}

func TestMergedPartitionsNotRefined(t *testing.T) {
	cfg := DefaultConfig()
	eng, _, _ := testSetup(t, 3, 2500, 11, cfg)
	q := geom.Cube(geom.V(0.35, 0.35, 0.35), 0.05)
	dss := []object.DatasetID{0, 1, 2}
	for i := 0; i < 2; i++ {
		if _, err := eng.Query(q, dss); err != nil {
			t.Fatal(err)
		}
	}
	if eng.Merger().NumFiles() == 0 {
		t.Skip("no merge file created for this layout")
	}
	before := eng.Metrics().Refinements
	for i := 0; i < 4; i++ {
		if _, err := eng.Query(q, dss); err != nil {
			t.Fatal(err)
		}
	}
	after := eng.Metrics().Refinements
	if after != before {
		t.Fatalf("merged partitions were refined (%d -> %d)", before, after)
	}
}

func TestSpaceBudgetEvictsLRU(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Merger.SpaceBudgetPages = 40
	eng, _, _ := testSetup(t, 6, 3000, 12, cfg)
	r := rand.New(rand.NewSource(13))
	// Drive many distinct 3-dataset combinations to force churn.
	combos := [][]object.DatasetID{
		{0, 1, 2}, {1, 2, 3}, {2, 3, 4}, {3, 4, 5}, {0, 2, 4}, {1, 3, 5},
	}
	for i := 0; i < 40; i++ {
		c := combos[r.Intn(len(combos))]
		q, ok := geom.Cube(geom.V(0.3+r.Float64()*0.4, 0.3+r.Float64()*0.4, 0.3+r.Float64()*0.4), 0.05).Intersection(geom.UnitBox())
		if !ok {
			continue
		}
		if _, err := eng.Query(q, c); err != nil {
			t.Fatal(err)
		}
		if got := eng.Merger().TotalPages(); got > cfg.Merger.SpaceBudgetPages {
			t.Fatalf("merge space %d exceeds budget %d", got, cfg.Merger.SpaceBudgetPages)
		}
	}
	if eng.Metrics().MergeEvictions == 0 {
		t.Fatal("tight budget caused no evictions")
	}
}

func TestMergeRequiresSameRefinementLevel(t *testing.T) {
	cfg := DefaultConfig()
	eng, _, _ := testSetup(t, 3, 2500, 14, cfg)
	// Refine dataset 0 alone in an area, then query the 3-combination once:
	// levels differ, so the first over-threshold merge may skip those cells.
	qa := geom.Cube(geom.V(0.6, 0.6, 0.6), 0.03)
	for i := 0; i < 4; i++ {
		if _, err := eng.Query(qa, []object.DatasetID{0}); err != nil {
			t.Fatal(err)
		}
	}
	dss := []object.DatasetID{0, 1, 2}
	if _, err := eng.Query(qa, dss); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Query(qa, dss); err != nil {
		t.Fatal(err)
	}
	// The invariant we guarantee: every merged entry key corresponds to a
	// leaf at the same level in all member trees at merge time, which means
	// entries must be pairwise non-overlapping.
	mf := eng.Merger().file(KeyOf(dss))
	if mf == nil {
		t.Skip("no merge file created for this layout")
	}
	all := mf.EntryKeys()
	fanout := eng.Tree(0).FanoutPerDim()
	for i := 0; i < len(all); i++ {
		for j := i + 1; j < len(all); j++ {
			if all[i].AncestorOf(all[j], fanout) || all[j].AncestorOf(all[i], fanout) {
				t.Fatalf("overlapping merge entries %v and %v", all[i], all[j])
			}
		}
	}
	// And every entry's key is a leaf at the same level in all member
	// trees, or the trees have since refined past it (never shallower).
	for _, k := range all {
		for _, ds := range dss {
			if leaf := eng.Tree(ds).LeafAt(k); leaf != nil && leaf.Key() != k {
				t.Fatalf("entry %v resolves to different leaf %v in ds %d", k, leaf.Key(), ds)
			}
		}
	}
}

// TestKnobCensus pins the engine's configuration surface so it cannot
// re-accrete; the failure message carries the rule for whoever wants to add
// a field.
func TestKnobCensus(t *testing.T) {
	const rule = "a new knob needs two callers outside tests and examples that need different values — else make it a constant (see the ROADMAP standing constraint \"Knob rule\")"
	var got []string
	cfg := reflect.TypeOf(Config{})
	for i := 0; i < cfg.NumField(); i++ {
		got = append(got, cfg.Field(i).Name)
	}
	want := []string{"Octree", "Merger", "DisableMerging", "AsyncMaintenance", "MaintenanceWorkers",
		"ShareScans", "CacheResults", "CacheCapacity", "HeatHalfLife", "AdaptiveCache"}
	if !slices.Equal(got, want) {
		t.Errorf("Config has fields %v, want %v: %s", got, want, rule)
	}
	if n := reflect.TypeOf(MaintenanceStats{}).NumField(); n != 10 {
		t.Errorf("MaintenanceStats has %d fields, want 10: a counter nothing reads is a knob's shadow", n)
	}
}
