package odyssey

// Cross-module integration tests: full workloads through the public API and
// the harness, comparing every engine against the naive-scan oracle and
// exercising merge-file eviction, both cost models, and multi-combination
// exploration end to end.

import (
	"testing"
	"time"

	"spaceodyssey/internal/bench"
	"spaceodyssey/internal/core"
	"spaceodyssey/internal/simdisk"
	"spaceodyssey/internal/workload"
)

// TestIntegrationAllEnginesAgreeOnSkewedWorkload is the heavyweight
// equivalence test: a merging-heavy workload over 6 datasets, every engine,
// exact result equality via the harness oracle.
func TestIntegrationAllEnginesAgreeOnSkewedWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy integration test")
	}
	cfg := bench.DefaultConfig()
	cfg.Datasets = 6
	cfg.ObjectsPerDataset = 8000
	cfg.GridCells = 5
	env := bench.NewEnv(cfg)
	spec, err := bench.FigureByID("fig4a")
	if err != nil {
		t.Fatal(err)
	}
	w, err := bench.WorkloadForSpec(env, spec,
		bench.WorkloadConfig{Queries: 80, QueryVolumeFrac: 1e-4, Seed: 21}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []bench.EngineKind{
		bench.KindOdyssey, bench.KindOdysseyNoMerge, bench.KindFLATAin1,
		bench.KindFLAT1fE, bench.KindRTreeAin1, bench.KindRTree1fE,
		bench.KindGrid1fE, bench.KindGridAin1,
	} {
		if err := env.VerifyAgainstOracle(kind, w); err != nil {
			t.Errorf("%s: %v", kind, err)
		}
	}
}

// TestIntegrationEvictionUnderPressure runs a long exploration with a tiny
// merge budget through the public API and checks correctness plus budget
// adherence throughout.
func TestIntegrationEvictionUnderPressure(t *testing.T) {
	ex, err := tunedExplorer(Options{}, func(c *core.Config) { c.Merger.SpaceBudgetPages = 64 })
	if err != nil {
		t.Fatal(err)
	}
	data := GenerateDatasets(DataConfig{Seed: 31, NumObjects: 5000, Clusters: 8}, 6)
	for i, objs := range data {
		if err := ex.AddDataset(DatasetID(i), objs); err != nil {
			t.Fatal(err)
		}
	}
	w, err := GenerateWorkload(WorkloadConfig{
		Seed: 32, NumQueries: 150, NumDatasets: 6, DatasetsPerQuery: 4,
		QueryVolumeFrac: 1e-4, RangeDist: RangeClustered, CombDist: CombZipf,
		ClusterCenters: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range w.Queries {
		got, err := ex.Query(q.Range, q.Datasets)
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		for _, ds := range q.Datasets {
			for _, o := range data[ds] {
				if o.Intersects(q.Range) {
					want++
				}
			}
		}
		if len(got) != want {
			t.Fatalf("query %d: %d objects, oracle %d", q.ID, len(got), want)
		}
		if pages := ex.MergeSpacePages(); pages > 64 {
			t.Fatalf("merge space %d exceeds budget after query %d", pages, q.ID)
		}
	}
	if ex.Metrics().MergeEvictions == 0 {
		t.Fatal("tiny budget triggered no evictions")
	}
}

// TestIntegrationSSDCostModel runs the engine under an SSD-like model (a
// SATA SSD's seek and transfer); results must be identical, only cheaper.
func TestIntegrationSSDCostModel(t *testing.T) {
	run := func(cost CostModel) (int, int64) {
		ex, err := NewExplorer(Options{Cost: cost, DropCachesPerQuery: true})
		if err != nil {
			t.Fatal(err)
		}
		data := GenerateDatasets(DataConfig{Seed: 41, NumObjects: 4000}, 3)
		for i, objs := range data {
			if err := ex.AddDataset(DatasetID(i), objs); err != nil {
				t.Fatal(err)
			}
		}
		total := 0
		for i := 0; i < 10; i++ {
			objs, err := ex.Query(Cube(V(0.4, 0.4, 0.4), 0.06), []DatasetID{0, 1, 2})
			if err != nil {
				t.Fatal(err)
			}
			total += len(objs)
		}
		return total, int64(ex.Clock())
	}
	sasObjs, sasTime := run(simdisk.DefaultCostModel())
	ssdObjs, ssdTime := run(CostModel{Seek: 80 * time.Microsecond, Transfer: 8 * time.Microsecond, CacheHit: 200 * time.Nanosecond})
	if sasObjs != ssdObjs {
		t.Fatalf("results differ across cost models: %d vs %d", sasObjs, ssdObjs)
	}
	if ssdTime >= sasTime {
		t.Fatalf("SSD (%d) not faster than SAS (%d)", ssdTime, sasTime)
	}
}

// TestIntegrationDeterminism replays the same workload twice and requires
// bit-identical simulated timings (the whole stack is deterministic).
func TestIntegrationDeterminism(t *testing.T) {
	run := func() []int64 {
		cfg := bench.DefaultConfig()
		cfg.Datasets = 4
		cfg.ObjectsPerDataset = 3000
		cfg.GridCells = 4
		env := bench.NewEnv(cfg)
		w, err := workload.Generate(workload.Config{
			Seed: 51, NumQueries: 40, NumDatasets: 4, DatasetsPerQuery: 3,
			QueryVolumeFrac: 1e-4,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := env.Run(bench.KindOdyssey, w)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]int64, len(res.QueryTimes))
		for i, d := range res.QueryTimes {
			out[i] = int64(d)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("query %d timing differs: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestIntegrationGrowingDatasetCollection adds datasets mid-session; new
// datasets must be queryable immediately and old indexes unaffected.
func TestIntegrationGrowingDatasetCollection(t *testing.T) {
	ex, err := NewExplorer(Options{})
	if err != nil {
		t.Fatal(err)
	}
	data := GenerateDatasets(DataConfig{Seed: 61, NumObjects: 3000}, 4)
	for i := 0; i < 2; i++ {
		if err := ex.AddDataset(DatasetID(i), data[i]); err != nil {
			t.Fatal(err)
		}
	}
	q := Cube(V(0.5, 0.5, 0.5), 0.08)
	if _, err := ex.Query(q, []DatasetID{0, 1}); err != nil {
		t.Fatal(err)
	}
	// Add two more after the first queries.
	for i := 2; i < 4; i++ {
		if err := ex.AddDataset(DatasetID(i), data[i]); err != nil {
			t.Fatal(err)
		}
	}
	got, err := ex.Query(q, []DatasetID{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for i := 0; i < 4; i++ {
		for _, o := range data[i] {
			if o.Intersects(q) {
				want++
			}
		}
	}
	if len(got) != want {
		t.Fatalf("grown collection: %d objects, oracle %d", len(got), want)
	}
}

// TestSharedSegmentClockRepeats holds the read order of merge segments fixed
// when segment sharing spreads a query's segments over several files: run
// starts in different files can tie, and the order among ties — which decides
// the seeks charged — once followed map iteration. Five runs of the pinned
// exploration (pin_test.go) must agree to the nanosecond.
func TestSharedSegmentClockRepeats(t *testing.T) {
	opts := Options{DropCachesPerQuery: true}
	want := runPin(t, opts, shareSegments)
	for i := 1; i < 5; i++ {
		if got := runPin(t, opts, shareSegments); got != want {
			t.Fatalf("run %d diverged from run 0:\n got  %#v\n want %#v", i, got, want)
		}
	}
}
