package odyssey

import (
	"math/rand"
	"sync"
	"testing"

	"spaceodyssey/internal/engine"
)

// Contention-model storms: the maintenance I/O budget shapes *when* work
// runs, never *what* a query returns. The throttle gates wall-clock
// admission of background device operations, so a throttled run must
// produce byte-identical result sets to an unthrottled one — and both must
// match the NaiveScan oracle.

// fixedStormQueries draws a deterministic query list so two independent
// Explorer runs execute the identical workload.
func fixedStormQueries(env *oracleEnv, n int, seed int64) []Query {
	rng := rand.New(rand.NewSource(seed))
	queries := make([]Query, n)
	for i := range queries {
		queries[i] = env.randomQuery(rng)
	}
	return queries
}

// runStorm fires the query list at the Explorer from workers goroutines
// (striding over indices) and returns the per-query result sets in input
// order.
func runStorm(t *testing.T, env *oracleEnv, queries []Query, workers int) [][]Object {
	t.Helper()
	results := make([][]Object, len(queries))
	errs := make([]error, len(queries))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(queries); i += workers {
				results[i], errs[i] = env.ex.Query(queries[i].Range, queries[i].Datasets)
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	return results
}

// TestThrottledMaintenanceByteIdentical pins the budget throttle's
// zero-effect contract on results: the same concurrent workload on a
// budget-throttled async Explorer and an unthrottled one returns
// byte-identical result sets, and both match the oracle. Only timing may
// differ.
func TestThrottledMaintenanceByteIdentical(t *testing.T) {
	run := func(budget float64) ([]Query, [][]Object, int64) {
		env := newOracleEnv(t, Options{
			AsyncMaintenance: true, MaintenanceWorkers: 2, ShareScans: true,
			RealTimeScale: 0.002, MaintenanceBudget: budget,
		}, 3, 2000)
		defer env.ex.Close()
		queries := fixedStormQueries(env, 48, 99)
		results := runStorm(t, env, queries, 4)
		for i, q := range queries {
			want, err := env.oracle.Query(q.Range, q.Datasets)
			if err != nil {
				t.Fatalf("oracle query %d: %v", i, err)
			}
			if !engine.SameObjects(results[i], want) {
				t.Errorf("budget %v query %d: engine returned %d objects, oracle %d",
					budget, i, len(results[i]), len(want))
			}
		}
		return queries, results, env.ex.DiskStats().ThrottledOps
	}

	baseQueries, base, baseThrottled := run(0)
	thrQueries, throttled, throttledOps := run(0.25)
	if baseThrottled != 0 {
		t.Errorf("unthrottled run recorded %d throttled ops", baseThrottled)
	}
	t.Logf("throttled run gated %d maintenance ops", throttledOps)
	for i := range baseQueries {
		if thrQueries[i].Range != baseQueries[i].Range {
			t.Fatalf("query list diverged at %d; the comparison is vacuous", i)
		}
		if !engine.SameObjects(base[i], throttled[i]) {
			t.Errorf("query %d: throttled run returned %d objects, unthrottled %d — results must be byte-identical",
				i, len(throttled[i]), len(base[i]))
		}
	}
}
