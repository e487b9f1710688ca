package odyssey

import (
	"context"
	"testing"
	"time"

	"spaceodyssey/internal/workload"
)

// Result-cache oracle storms: the race-mode equivalence suite with
// Options.CacheResults on — exact hits, scans attached
// to another query's in-flight read and epoch flushes must change I/O
// accounting, never what a query returns, even while refinement and merging
// republish the layout underneath. The real-time emulation stretches device
// latencies into wall-clock windows so attachment genuinely happens under the
// race detector.

func TestConcurrentQueriesMatchOracleCacheResults(t *testing.T) {
	env := newOracleEnv(t, Options{CacheResults: true, RealTimeScale: 0.002}, nil, 3, 2000)
	runConcurrentOracle(t, env, 8, 20)
	if m := env.ex.Metrics(); m.Queries != 8*20 {
		t.Errorf("engine recorded %d queries, want %d", m.Queries, 8*20)
	}
}

func TestConcurrentQueriesMatchOracleCacheAsync(t *testing.T) {
	env := newOracleEnv(t, Options{
		CacheResults: true, AsyncMaintenance: true, RealTimeScale: 0.002,
	}, maintenanceWorkers(3), 3, 2000)
	defer env.ex.Close()
	runConcurrentOracle(t, env, 8, 15)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := env.ex.Quiesce(ctx); err != nil {
		t.Fatalf("Quiesce: %v", err)
	}
	if err := env.ex.MaintenanceErr(); err != nil {
		t.Fatalf("background maintenance task failed: %v", err)
	}
	env.ex.SetRealTimeScale(0)
	// Post-quiesce the layout is frozen, so a repeated query must populate
	// and then hit the cache — and still match the oracle both times.
	q := Query{Range: Cube(V(0.35, 0.4, 0.4), 0.06), Datasets: []DatasetID{0, 1, 2}}
	if err := env.check(q); err != nil {
		t.Fatalf("post-quiesce populate query: %v", err)
	}
	before := env.ex.CacheStats()
	if err := env.check(q); err != nil {
		t.Fatalf("post-quiesce repeat query: %v", err)
	}
	after := env.ex.CacheStats()
	if after.Hits <= before.Hits {
		t.Fatalf("repeat query over a frozen layout hit nothing: before %+v after %+v",
			before, after)
	}
	if after.ZeroReadQueries <= before.ZeroReadQueries {
		t.Fatalf("repeat query still charged device reads: before %+v after %+v",
			before, after)
	}
}

// TestCacheStatsLedger drives the same hot repeated query twice — with and
// without caching — and checks that (a) the caching run serves repeats from
// the cache with zero device reads and (b) both runs return identical
// result multisets. Caching may only change I/O, never answers.
func TestCacheStatsLedger(t *testing.T) {
	build := func(cache bool) (*Explorer, []BatchResult) {
		ex, err := NewExplorer(Options{
			CacheResults:  cache,
			RealTimeScale: 0.002,
		})
		if err != nil {
			t.Fatal(err)
		}
		data := GenerateDatasets(DataConfig{Seed: 7, NumObjects: 2000, Clusters: 4}, 3)
		for i, objs := range data {
			if err := ex.AddDataset(DatasetID(i), objs); err != nil {
				t.Fatal(err)
			}
		}
		hot := Cube(V(0.45, 0.45, 0.5), 0.07)
		queries := make([]Query, 48)
		for i := range queries {
			queries[i] = Query{Range: hot, Datasets: []DatasetID{0, 1, 2}}
		}
		res, err := ex.QueryBatch(queries, 8)
		if err != nil {
			t.Fatal(err)
		}
		return ex, res
	}

	exOff, resOff := build(false)
	exOn, resOn := build(true)

	if st := exOff.CacheStats(); st != (CacheStats{}) {
		t.Fatalf("caching off but ledger non-zero: %+v", st)
	}
	st := exOn.CacheStats()
	if st.Inserts == 0 || st.Hits == 0 {
		t.Fatalf("hot repeated run cached nothing: %+v", st)
	}
	if st.ZeroReadQueries == 0 {
		t.Fatalf("no query was served entirely from the cache: %+v", st)
	}

	// Identical queries, identical answers — caching may only change I/O.
	for i := range resOff {
		if resOff[i].Err != nil || resOn[i].Err != nil {
			t.Fatalf("query %d errored: off=%v on=%v", i, resOff[i].Err, resOn[i].Err)
		}
		if len(resOff[i].Objects) != len(resOn[i].Objects) {
			t.Fatalf("query %d: %d objects without caching, %d with",
				i, len(resOff[i].Objects), len(resOn[i].Objects))
		}
	}
}

// TestDeprecatedSwitchesAreInert: a deprecated Options field is ignored, so
// a serial caching engine with it set runs exactly as one without: the same
// answers and the same cache ledger after every query. Both run on a budget
// of 64 objects, which the stream must overflow: an eviction order the field
// still reached would show in the ledger.
func TestDeprecatedSwitchesAreInert(t *testing.T) {
	data := GenerateDatasets(DataConfig{Seed: 7, NumObjects: 2000, Clusters: 4}, 3)
	w, err := workload.GenerateScenario("zipf", workload.ScenarioConfig{
		Seed: 5, NumQueries: 600, NumDatasets: 3, DatasetsPerQuery: 2, QueryVolumeFrac: 1e-3,
	})
	if err != nil {
		t.Fatal(err)
	}
	open := func(opts Options) *Explorer {
		ex, err := NewExplorer(opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ex.Close() })
		for i, objs := range data {
			if err := ex.AddDataset(DatasetID(i), objs); err != nil {
				t.Fatal(err)
			}
		}
		return ex
	}
	const budget = 64
	for _, tc := range []struct {
		name string
		set  func(*Options)
	}{
		{"ShareScans", func(o *Options) { o.ShareScans = true }},
		{"AdaptiveCache", func(o *Options) { o.AdaptiveCache = true }},
		{"HeatHalfLife", func(o *Options) { o.HeatHalfLife = 64 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := Options{CacheResults: true, CacheCapacity: budget}
			off := open(opts)
			tc.set(&opts)
			on := open(opts)
			for i, q := range w.Queries {
				want, err := off.Query(q.Range, q.Datasets)
				if err != nil {
					t.Fatal(err)
				}
				got, err := on.Query(q.Range, q.Datasets)
				if err != nil {
					t.Fatal(err)
				}
				if !sameObjects(got, want) {
					t.Fatalf("query %d: %d objects with %s set, %d without", i, len(got), tc.name, len(want))
				}
				if st, base := on.CacheStats(), off.CacheStats(); st != base || st.Capacity != budget {
					t.Fatalf("query %d: with %s set the ledger is %+v, without %+v; the budget is %d",
						i, tc.name, st, base, budget)
				}
			}
			if st := on.CacheStats(); st.Hits == 0 || st.Inserts == 0 || st.Evictions == 0 {
				t.Fatalf("the stream exercised too little: %+v", st)
			}
		})
	}
}
