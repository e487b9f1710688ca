package odyssey

import (
	"math"
	"testing"

	"spaceodyssey/internal/engine"
)

func testData(n, perDS int, seed int64) [][]Object {
	return GenerateDatasets(DataConfig{Seed: seed, NumObjects: perDS, Clusters: 5}, n)
}

func TestNewExplorerDefaults(t *testing.T) {
	ex, err := NewExplorer(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ex.NumDatasets() != 0 {
		t.Fatal("fresh explorer has datasets")
	}
	if ex.Clock() != 0 {
		t.Fatal("fresh explorer has elapsed time")
	}
}

func TestNewExplorerRejectsBadCost(t *testing.T) {
	if _, err := NewExplorer(Options{Cost: CostModel{Seek: -1}}); err == nil {
		t.Fatal("negative cost accepted")
	}
}

func TestAddDatasetValidation(t *testing.T) {
	ex, err := NewExplorer(Options{})
	if err != nil {
		t.Fatal(err)
	}
	data := testData(2, 500, 1)
	if err := ex.AddDataset(0, data[0]); err != nil {
		t.Fatal(err)
	}
	if err := ex.AddDataset(0, data[0]); err == nil {
		t.Fatal("duplicate dataset accepted")
	}
	// Objects tagged with the wrong dataset id are rejected.
	if err := ex.AddDataset(5, data[1]); err == nil {
		t.Fatal("mis-tagged objects accepted")
	}
	if ex.NumDatasets() != 1 {
		t.Fatalf("NumDatasets = %d", ex.NumDatasets())
	}
}

// TestAddDatasetRejectedLeavesNoTrace pins that a dataset rejected for one
// bad object leaves nothing behind: no raw file on the device, no write in
// the counters, no time on the paper clock — and the repaired data goes in.
func TestAddDatasetRejectedLeavesNoTrace(t *testing.T) {
	ex, err := NewExplorer(Options{})
	if err != nil {
		t.Fatal(err)
	}
	data := testData(1, 500, 3)[0]
	good := data[len(data)-1]
	data[len(data)-1].Center.X = math.NaN()
	if err := ex.AddDataset(0, data); err == nil {
		t.Fatal("non-finite object accepted")
	}
	if ds := ex.DiskStats(); ds.PageWrites != 0 || ds.BytesWritten != 0 {
		t.Fatalf("rejected dataset left writes behind: %+v", ds)
	}
	if ex.Clock() != 0 {
		t.Fatalf("rejected dataset left %v on the clock", ex.Clock())
	}
	if ex.NumDatasets() != 0 {
		t.Fatalf("NumDatasets = %d after a rejected add", ex.NumDatasets())
	}
	data[len(data)-1] = good
	if err := ex.AddDataset(0, data); err != nil {
		t.Fatalf("retry with repaired data: %v", err)
	}
	got, err := ex.Query(good.Box(), []DatasetID{0})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, o := range got {
		found = found || o == good
	}
	if !found {
		t.Fatalf("repaired object missing from %d results", len(got))
	}

	// A dataset the engine refuses after its raw file was written (here: a
	// fanout no octree can have) takes the file back off the device.
	bad, err := NewExplorer(Options{PartitionsPerLevel: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := bad.AddDataset(0, data); err == nil {
		t.Fatal("dataset accepted under an invalid octree fanout")
	}
	if pages := bad.dev.TotalPages(); pages != 0 {
		t.Fatalf("refused dataset left %d pages on the device", pages)
	}
}

func TestQueryLifecycle(t *testing.T) {
	ex, err := NewExplorer(Options{DropCachesPerQuery: true})
	if err != nil {
		t.Fatal(err)
	}
	data := testData(3, 3000, 2)
	for i, objs := range data {
		if err := ex.AddDataset(DatasetID(i), objs); err != nil {
			t.Fatal(err)
		}
	}
	// Before any query nothing is indexed.
	info, err := ex.Dataset(0)
	if err != nil {
		t.Fatal(err)
	}
	if info.Indexed {
		t.Fatal("dataset indexed before first query")
	}
	if info.Objects != 3000 || info.RawPages == 0 {
		t.Fatalf("info = %+v", info)
	}

	q := Cube(V(0.5, 0.5, 0.5), 0.05)
	objs, dt, err := ex.QueryTimed(q, []DatasetID{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if dt <= 0 {
		t.Fatal("query cost zero simulated time")
	}
	// Check against a naive filter of the source data.
	want := 0
	for dsi := 0; dsi < 2; dsi++ {
		for _, o := range data[dsi] {
			if o.Intersects(q) {
				want++
			}
		}
	}
	if len(objs) != want {
		t.Fatalf("query returned %d objects, naive %d", len(objs), want)
	}

	info, _ = ex.Dataset(0)
	if !info.Indexed || info.Leaves == 0 {
		t.Fatal("dataset 0 not indexed after query")
	}
	info2, _ := ex.Dataset(2)
	if info2.Indexed {
		t.Fatal("unqueried dataset 2 was indexed")
	}
	m := ex.Metrics()
	if m.Queries != 1 || m.TreesBuilt != 2 {
		t.Fatalf("metrics = %+v", m)
	}
	if ex.DiskStats().PageReads == 0 {
		t.Fatal("no disk reads recorded")
	}
}

func TestQueryErrors(t *testing.T) {
	ex, err := NewExplorer(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ex.Query(UnitBox(), nil); err == nil {
		t.Fatal("empty dataset list accepted")
	}
	if _, err := ex.Query(UnitBox(), []DatasetID{9}); err == nil {
		t.Fatal("unknown dataset accepted")
	}
	if _, err := ex.Dataset(4); err == nil {
		t.Fatal("Dataset(unknown) succeeded")
	}
	if _, err := ex.TargetLevels(4, 1e-6); err == nil {
		t.Fatal("TargetLevels(unknown) succeeded")
	}
}

func TestMergingVisibleThroughAPI(t *testing.T) {
	ex, err := NewExplorer(Options{})
	if err != nil {
		t.Fatal(err)
	}
	data := testData(4, 2500, 3)
	for i, objs := range data {
		if err := ex.AddDataset(DatasetID(i), objs); err != nil {
			t.Fatal(err)
		}
	}
	q := Cube(V(0.4, 0.4, 0.4), 0.06)
	dss := []DatasetID{0, 1, 2}
	for i := 0; i < 3; i++ {
		if _, err := ex.Query(q, dss); err != nil {
			t.Fatal(err)
		}
	}
	if ex.MergeFileCount() == 0 {
		t.Fatal("no merge file after repeated combination queries")
	}
	if ex.MergeSpacePages() == 0 {
		t.Fatal("merge files occupy no space")
	}
	if ex.Metrics().PartitionsFromMerge == 0 {
		t.Fatal("no partitions served from merge files")
	}
}

func TestDisableMergingOption(t *testing.T) {
	ex, err := NewExplorer(Options{DisableMerging: true})
	if err != nil {
		t.Fatal(err)
	}
	data := testData(3, 1000, 4)
	for i, objs := range data {
		if err := ex.AddDataset(DatasetID(i), objs); err != nil {
			t.Fatal(err)
		}
	}
	q := Cube(V(0.5, 0.5, 0.5), 0.08)
	for i := 0; i < 4; i++ {
		if _, err := ex.Query(q, []DatasetID{0, 1, 2}); err != nil {
			t.Fatal(err)
		}
	}
	if ex.MergeFileCount() != 0 {
		t.Fatal("merge files created despite DisableMerging")
	}
}

func TestTargetLevels(t *testing.T) {
	ex, err := NewExplorer(Options{})
	if err != nil {
		t.Fatal(err)
	}
	data := testData(1, 100, 5)
	if err := ex.AddDataset(0, data[0]); err != nil {
		t.Fatal(err)
	}
	// ppl=64 → level-1 volume 1/64; qVol 1e-5, rt=4:
	// ratio = (1/64)/(4e-5) ≈ 390 → 2 levels.
	levels, err := ex.TargetLevels(0, 1e-5)
	if err != nil {
		t.Fatal(err)
	}
	if levels != 2 {
		t.Fatalf("TargetLevels = %d, want 2", levels)
	}
}

func TestCompareAgreesAcrossEngines(t *testing.T) {
	data := testData(4, 1500, 6)
	w, err := GenerateWorkload(WorkloadConfig{
		Seed: 7, NumQueries: 25, NumDatasets: 4, DatasetsPerQuery: 3,
		QueryVolumeFrac: 1e-4, RangeDist: RangeClustered, CombDist: CombZipf,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Compare(data, w,
		[]BaselineKind{EngineOdyssey, EngineGrid1fE, EngineNaiveScan},
		CompareOptions{GridCells: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("%d results", len(res))
	}
	for _, r := range res[1:] {
		if r.Objects != res[0].Objects {
			t.Fatalf("%s returned %d objects, %s returned %d",
				r.Engine, r.Objects, res[0].Engine, res[0].Objects)
		}
	}
	for _, r := range res {
		if len(r.PerQuery) != 25 {
			t.Fatalf("%s has %d per-query times", r.Engine, len(r.PerQuery))
		}
		if r.Total != r.IndexTime+r.QueryTime {
			t.Fatalf("%s: total mismatch", r.Engine)
		}
	}
	// Odyssey carries metrics; Grid does not.
	if res[0].Metrics == nil {
		t.Fatal("Odyssey result missing metrics")
	}
	if res[1].Metrics != nil {
		t.Fatal("Grid result has Odyssey metrics")
	}
}

func TestPublicOracleAgreement(t *testing.T) {
	// End-to-end: the public API must agree with the naive oracle across a
	// mixed workload (integration test at the API boundary).
	ex, err := NewExplorer(Options{})
	if err != nil {
		t.Fatal(err)
	}
	data := testData(3, 2000, 8)
	for i, objs := range data {
		if err := ex.AddDataset(DatasetID(i), objs); err != nil {
			t.Fatal(err)
		}
	}
	w, err := GenerateWorkload(WorkloadConfig{
		Seed: 9, NumQueries: 40, NumDatasets: 3, DatasetsPerQuery: 2,
		QueryVolumeFrac: 1e-4,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range w.Queries {
		// Every third query names its first dataset twice; it is still read
		// once.
		asked := q.Datasets
		if i%3 == 0 {
			asked = append(append([]DatasetID(nil), asked...), asked[0])
		}
		got, err := ex.Query(q.Range, asked)
		if err != nil {
			t.Fatal(err)
		}
		var want []Object
		for _, ds := range q.Datasets {
			for _, o := range data[ds] {
				if o.Intersects(q.Range) {
					want = append(want, o)
				}
			}
		}
		if !engine.SameObjects(got, want) {
			t.Fatalf("query %d (datasets %v): %d objects, oracle %d", q.ID, asked, len(got), len(want))
		}
	}
}

// replayWorkload runs the same serial workload through an Explorer with the
// given storage topology and returns its aggregate disk stats.
func replayWorkload(t *testing.T, opts Options) DiskStats {
	t.Helper()
	ex, err := NewExplorer(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, objs := range testData(4, 1500, 21) {
		if err := ex.AddDataset(DatasetID(i), objs); err != nil {
			t.Fatal(err)
		}
	}
	w, err := GenerateWorkload(WorkloadConfig{
		Seed: 17, NumQueries: 60, NumDatasets: 4, DatasetsPerQuery: 3,
		QueryVolumeFrac: 2e-4,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range w.Queries {
		if _, err := ex.Query(q.Range, q.Datasets); err != nil {
			t.Fatal(err)
		}
	}
	return ex.DiskStats()
}

// TestDeviceArrayStatsConservation pins the invariant that placement moves
// I/O between devices but never changes how much I/O the engine performs: a
// serial workload replayed on a single device and on a 2x2 array produces
// identical volume counters (reads, writes, bytes, cache hits — the cache
// is ample on both sides, so hit patterns match too). Seek counts are
// excluded by design: they are exactly what the topology is supposed to
// change.
func TestDeviceArrayStatsConservation(t *testing.T) {
	single := replayWorkload(t, Options{CachePages: 8192})
	arr := replayWorkload(t, Options{CachePages: 8192, Devices: 2, Channels: 2})
	if arr.PageReads != single.PageReads || arr.PageWrites != single.PageWrites ||
		arr.BytesRead != single.BytesRead || arr.BytesWritten != single.BytesWritten ||
		arr.CacheHits != single.CacheHits {
		t.Errorf("array stats %+v, single-device %+v — I/O volume must be invariant under placement", arr, single)
	}
}

// TestTopologyDefaults checks the single-device topology surface.
func TestTopologyDefaults(t *testing.T) {
	ex, err := NewExplorer(Options{})
	if err != nil {
		t.Fatal(err)
	}
	topo := ex.Topology()
	if topo.Devices != 1 || topo.Channels != 1 {
		t.Fatalf("default Topology() = %+v", topo)
	}
	if ds := ex.DeviceStats(); len(ds) != 1 || ds[0] != ex.DiskStats() {
		t.Fatalf("single-device DeviceStats = %+v, DiskStats %+v", ds, ex.DiskStats())
	}
	cs := ex.ChannelStats()
	if len(cs) != 1 || len(cs[0]) != 1 {
		t.Fatalf("default ChannelStats shape = %dx?, want 1x1", len(cs))
	}
}
