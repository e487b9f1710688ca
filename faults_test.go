package odyssey

import (
	"context"
	"errors"
	"sort"
	"sync"
	"testing"
	"time"
)

// faultEnv builds an Explorer over two clustered datasets.
func faultEnv(t *testing.T, opts Options) *Explorer {
	t.Helper()
	ex, err := NewExplorer(opts)
	if err != nil {
		t.Fatal(err)
	}
	data := GenerateDatasets(DataConfig{Seed: 23, NumObjects: 2000, Clusters: 3}, 2)
	for i, objs := range data {
		if err := ex.AddDataset(DatasetID(i), objs); err != nil {
			t.Fatal(err)
		}
	}
	return ex
}

// objIDs flattens a result set into a sorted (dataset, id) list for
// order-independent comparison.
func objIDs(objs []Object) []int64 {
	ids := make([]int64, len(objs))
	for i, o := range objs {
		ids[i] = int64(o.Dataset)<<32 | int64(o.ID)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	return ids
}

// TestFaultNeverCachesPartialScan pins the robustness contract of the result
// cache and the scan-sharing layer under device faults: a scan that errors
// mid-read must insert nothing into the result cache (no partial or empty
// result masquerading as a cached answer), concurrent queries of the same
// region must all see the error rather than a truncated buffer, and once the
// device heals the same query must return the full, correct result.
func TestFaultNeverCachesPartialScan(t *testing.T) {
	ex := faultEnv(t, Options{CacheResults: true})
	defer ex.Close()
	dss := []DatasetID{0, 1}
	warm := Cube(V(0.3, 0.3, 0.3), 0.08)
	cold := Cube(V(0.7, 0.7, 0.7), 0.08)

	// Warm-up builds the level-0 trees and may populate the cache.
	if _, err := ex.Query(warm, dss); err != nil {
		t.Fatal(err)
	}
	before := ex.CacheStats()

	// Every read of every page now fails permanently: the cold region's
	// scans error mid-read on all concurrent attempts.
	ex.SetFaultPlan(FaultPlan{Seed: 9, PermanentRate: 1})
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = ex.Query(cold, dss)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			t.Fatalf("query %d over a fully faulted device returned no error", i)
		}
		if !errors.Is(err, ErrPermanent) {
			t.Fatalf("query %d error lost its classification: %v", i, err)
		}
	}
	after := ex.CacheStats()
	if after.Inserts != before.Inserts {
		t.Fatalf("failed scans inserted into the result cache: %d -> %d inserts",
			before.Inserts, after.Inserts)
	}

	// The device heals (clearing the plan also clears sticky permanent
	// faults — the simulated sectors were remapped); the same query now
	// returns the full result, identical to an Explorer that never faulted.
	ex.SetFaultPlan(FaultPlan{})
	got, err := ex.Query(cold, dss)
	if err != nil {
		t.Fatalf("query after clearing faults: %v", err)
	}
	ref := faultEnv(t, Options{})
	defer ref.Close()
	if _, err := ref.Query(warm, dss); err != nil {
		t.Fatal(err)
	}
	want, err := ref.Query(cold, dss)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("reference query empty; test region misses the data")
	}
	g, w := objIDs(got), objIDs(want)
	if len(g) != len(w) {
		t.Fatalf("healed query returned %d objects, reference %d", len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("healed query diverged from the never-faulted reference at object %d", i)
		}
	}
}

// TestExplorerRetryPolicy pins the SetRetryPolicy wiring: under a transient
// fault storm a retrying Explorer answers queries that a retry-less one
// would fail, the retries are ledgered in DiskStats, and none of them
// extends the simulated clock (a faulted attempt charges nothing).
func TestExplorerRetryPolicy(t *testing.T) {
	ex := faultEnv(t, Options{})
	defer ex.Close()
	ex.SetRetryPolicy(RetryPolicy{MaxAttempts: 8, Backoff: 50 * time.Microsecond})
	dss := []DatasetID{0, 1}
	q := Cube(V(0.7, 0.7, 0.7), 0.08)
	if _, err := ex.Query(q, dss); err != nil {
		t.Fatal(err)
	}

	// Baseline: the same query on a healthy device, for the clock check.
	ex.ResetClock()
	ex.SetFaultPlan(FaultPlan{})
	if _, err := ex.Query(q, dss); err != nil {
		t.Fatal(err)
	}
	clean := ex.Clock()

	ex.SetFaultPlan(FaultPlan{Seed: 13, TransientRate: 0.3})
	ex.ResetClock()
	got, err := ex.Query(q, dss)
	if err != nil {
		t.Fatalf("retrying query failed under 30%% transient faults: %v", err)
	}
	if len(got) == 0 {
		t.Fatal("retried query returned nothing")
	}
	stormy := ex.Clock()
	ds := ex.DiskStats()
	if ds.RetriedOps == 0 || ds.TransientFaults == 0 {
		t.Fatalf("retry ledger empty under a storm: %+v", ds)
	}
	// The query's pages are already buffer-cached from the baseline run, so
	// both runs serve mostly cache hits; the point is only that retries add
	// zero simulated time — the stormy run must not exceed the clean run by
	// more than the noise of layout work already done.
	if stormy > 2*clean+time.Millisecond {
		t.Fatalf("retries extended the simulated clock: clean %v, stormy %v", clean, stormy)
	}
}

// TestFaultStormServesFaultFreeResults holds the serving stack's fault
// claim: a converged zipf workload replayed cold-cache by four submitters on
// a 2×2 array, with scan sharing, the result cache and background
// maintenance on, under a seeded transient-fault storm (20 % of reads) with
// four read attempts, serves at least 95 % of its queries
// — and every query it serves returns exactly what the fault-free replay
// returned. A degraded device may fail a query, never change its answer.
func TestFaultStormServesFaultFreeResults(t *testing.T) {
	const submitters = 4
	ex, err := NewExplorer(Options{
		CacheResults: true, AsyncMaintenance: true,
		Devices: 2, Channels: 2, DropCachesPerQuery: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	ex.SetRetryPolicy(RetryPolicy{MaxAttempts: 4})
	for i, objs := range GenerateDatasets(DataConfig{Seed: 1, NumObjects: 10000, Clusters: 4}, 3) {
		if err := ex.AddDataset(DatasetID(i), objs); err != nil {
			t.Fatal(err)
		}
	}
	w, err := GenerateWorkload(WorkloadConfig{
		Seed: 7, NumQueries: 120, NumDatasets: 3, DatasetsPerQuery: 2, QueryVolumeFrac: 1e-2,
		RangeDist: RangeClustered, CombDist: CombZipf, ClusterCenters: 4, SigmaFactor: 0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// replay runs the workload cold-cache from the submitters, query i on
	// submitter i mod submitters, and drains the maintenance it scheduled.
	replay := func() ([][]Object, []error) {
		ex.FlushResultCache()
		ex.ResetStats()
		results, errs := make([][]Object, len(w.Queries)), make([]error, len(w.Queries))
		var wg sync.WaitGroup
		for s := 0; s < submitters; s++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := s; i < len(w.Queries); i += submitters {
					results[i], errs[i] = ex.Query(w.Queries[i].Range, w.Queries[i].Datasets)
				}
			}()
		}
		wg.Wait()
		if err := ex.Quiesce(context.Background()); err != nil {
			t.Fatal(err)
		}
		return results, errs
	}
	// Converge: replay until a pass leaves the layout alone.
	for pass := 0; ; pass++ {
		before := ex.Metrics()
		replay()
		after := ex.Metrics()
		if after.Refinements == before.Refinements && after.PartitionsMerged == before.PartitionsMerged {
			break
		}
		if pass == 8 {
			t.Fatal("layout still adapting after 8 passes")
		}
	}

	clean, errs := replay()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("fault-free query %d: %v", i, err)
		}
	}
	ex.SetFaultPlan(FaultPlan{Seed: 108, TransientRate: 0.2})
	stormy, errs := replay()
	ds := ex.DiskStats()
	served := 0
	for i, err := range errs {
		if err != nil {
			if !errors.Is(err, ErrTransient) {
				t.Fatalf("storm query %d failed with a non-transient error: %v", i, err)
			}
			continue
		}
		served++
		if !sameObjects(stormy[i], clean[i]) {
			t.Fatalf("storm query %d returned %d objects, fault-free %d", i, len(stormy[i]), len(clean[i]))
		}
	}
	t.Logf("storm: %d/%d served, %d pages read, %d transient faults, %d retried, %d exhausted",
		served, len(w.Queries), ds.PageReads, ds.TransientFaults, ds.RetriedOps, ds.RetryExhausted)
	if ds.TransientFaults == 0 || ds.RetriedOps == 0 {
		t.Fatalf("the storm injected %d faults and retried %d reads — the plan or the retry policy is not wired",
			ds.TransientFaults, ds.RetriedOps)
	}
	if 100*served < 95*len(w.Queries) {
		t.Fatalf("only %d of %d queries served mid-storm", served, len(w.Queries))
	}
}
