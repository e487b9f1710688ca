package odyssey

import (
	"context"
	"testing"
	"time"
)

// Result-cache oracle storms: the race-mode equivalence suite with
// Options.CacheResults on — exact hits, containment answers, scans attached
// to another query's in-flight read and epoch flushes must change I/O
// accounting, never what a query returns, even while refinement and merging
// republish the layout underneath. The real-time emulation stretches device
// latencies into wall-clock windows so attachment genuinely happens under the
// race detector.

func TestConcurrentQueriesMatchOracleCacheResults(t *testing.T) {
	env := newOracleEnv(t, Options{
		CacheResults: true, RealTimeScale: 0.002,
	}, 3, 2000)
	runConcurrentOracle(t, env, 8, 20)
	if m := env.ex.Metrics(); m.Queries != 8*20 {
		t.Errorf("engine recorded %d queries, want %d", m.Queries, 8*20)
	}
}

func TestConcurrentQueriesMatchOracleCacheAsync(t *testing.T) {
	env := newOracleEnv(t, Options{
		CacheResults: true, AsyncMaintenance: true, MaintenanceWorkers: 3,
		RealTimeScale: 0.002,
	}, 3, 2000)
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
	if after.Hits+after.ContainmentHits <= before.Hits+before.ContainmentHits {
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
	if st.Inserts == 0 || st.Hits+st.ContainmentHits == 0 {
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
