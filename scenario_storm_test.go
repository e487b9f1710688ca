package odyssey

// Race-mode oracle storm for the serving stack: the drift scenario replayed
// through the serving pipeline (fixed batch window, a result cache on a
// static budget of 64 objects) from many submitting goroutines at once must
// return byte-identical results to a plain static dispatcher with no caching
// at all. Eviction may move latency and I/O, never answers. The test is
// deliberately heavy on concurrency so `go test -race` sweeps eviction and
// the lazy eviction heap under contention.

import (
	"sync"
	"testing"
	"time"

	"spaceodyssey/internal/workload"
)

func stormEnv(t *testing.T, opts Options) (*Explorer, workload.ScenarioWorkload) {
	t.Helper()
	ex, err := NewExplorer(opts)
	if err != nil {
		t.Fatal(err)
	}
	data := GenerateDatasets(DataConfig{Seed: 7, NumObjects: 4000, Clusters: 6}, 6)
	for i, objs := range data {
		if err := ex.AddDataset(DatasetID(i), objs); err != nil {
			t.Fatal(err)
		}
	}
	w, err := workload.GenerateScenario("drift", workload.ScenarioConfig{
		Seed: 99, NumQueries: 120, NumDatasets: 6, DatasetsPerQuery: 2,
		QueryVolumeFrac: 2e-4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ex, w
}

func TestScenarioStormAdaptiveMatchesStaticOracle(t *testing.T) {
	// Oracle: static zero-window dispatcher, no result cache, no sharing —
	// the simplest serving path over the same converged layout.
	oracle, w := stormEnv(t, Options{})
	defer oracle.Close()
	want := make([][]Object, len(w.Queries))
	for i, q := range w.Queries {
		objs, err := oracle.Query(q.Range, q.Datasets)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = objs
	}

	// Candidate: the result cache behind the fixed batch window, on a static
	// budget of 64 objects, so evictions churn mid-storm.
	ex, _ := stormEnv(t, Options{CacheResults: true, CacheCapacity: 64})
	defer ex.Close()
	d := NewDispatcherWithAdmission(ex, 4, AdmissionConfig{BatchWindow: time.Millisecond})
	out := make(chan BatchResult, len(w.Queries))
	const stormers = 8
	var wg sync.WaitGroup
	for s := 0; s < stormers; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			// Interleave submitters across the drift phases so cache
			// epochs, evictions and the batcher all churn concurrently.
			for i := s; i < len(w.Queries); i += stormers {
				if err := d.Submit(i, w.Queries[i], out); err != nil {
					t.Error(err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	d.Close()
	close(out)

	got := 0
	for r := range out {
		if r.Err != nil {
			t.Fatalf("query %d failed: %v", r.Index, r.Err)
		}
		if !sameObjects(r.Objects, want[r.Index]) {
			t.Fatalf("query %d: the serving pipeline returned %d objects, oracle %d",
				r.Index, len(r.Objects), len(want[r.Index]))
		}
		got++
	}
	if got != len(w.Queries) {
		t.Fatalf("served %d of %d queries", got, len(w.Queries))
	}

	// The machinery must actually have engaged: the cache saw traffic and
	// evicted, and every query went through the batcher's stage.
	cs := ex.CacheStats()
	if cs.Inserts == 0 || cs.Evictions == 0 {
		t.Fatalf("the storm exercised too little of the result cache: %+v", cs)
	}
	st := d.AdmissionStats()
	if st.BatchedQueries != int64(len(w.Queries)) {
		t.Fatalf("BatchedQueries = %d, want %d", st.BatchedQueries, len(w.Queries))
	}
}
