package odyssey

// Race-mode oracle tests: many goroutines fire range queries at a shared
// Explorer while the engine concurrently builds, refines and merges, and
// every result set must equal the NaiveScan oracle's answer over the same
// raw files. Run under `go test -race` these tests are the contract the
// concurrent read/mutate locking discipline has to satisfy.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spaceodyssey/internal/engine"
	"spaceodyssey/internal/rawfile"
)

// oracleEnv is a shared Explorer plus the NaiveScan oracle over its raw
// files.
type oracleEnv struct {
	ex     *Explorer
	oracle *engine.NaiveScan
	nds    int
}

// newOracleEnv builds an Explorer with nds generated datasets and the
// oracle over the same raw files.
func newOracleEnv(t testing.TB, opts Options, nds, objects int) *oracleEnv {
	t.Helper()
	ex, err := NewExplorer(opts)
	if err != nil {
		t.Fatal(err)
	}
	data := GenerateDatasets(DataConfig{Seed: 42, NumObjects: objects, Clusters: 4}, nds)
	for i, objs := range data {
		if err := ex.AddDataset(DatasetID(i), objs); err != nil {
			t.Fatal(err)
		}
	}
	raws := make([]*rawfile.Raw, 0, nds)
	for _, raw := range ex.raws {
		raws = append(raws, raw)
	}
	return &oracleEnv{ex: ex, oracle: engine.NewNaiveScan(raws), nds: nds}
}

// randomQuery draws either one of a small pool of popular queries (so
// combinations cross the merge threshold and merge files are read back) or
// a fresh random range over a random dataset subset.
func (env *oracleEnv) randomQuery(rng *rand.Rand) Query {
	var q Box
	if rng.Intn(2) == 0 {
		// Popular centers: repeated combos drive merging.
		i := rng.Intn(8)
		q = Cube(V(0.15+0.1*float64(i%4), 0.25+0.15*float64(i/4), 0.4), 0.05)
	} else {
		q = Cube(V(rng.Float64(), rng.Float64(), rng.Float64()), 0.01+0.1*rng.Float64())
	}
	k := 1 + rng.Intn(env.nds)
	perm := rng.Perm(env.nds)[:k]
	dss := make([]DatasetID, k)
	for i, d := range perm {
		dss[i] = DatasetID(d)
	}
	return Query{Range: q, Datasets: dss}
}

// check runs one query through the engine and the oracle and compares.
func (env *oracleEnv) check(q Query) error {
	got, err := env.ex.Query(q.Range, q.Datasets)
	if err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	want, err := env.oracle.Query(q.Range, q.Datasets)
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	if !engine.SameObjects(got, want) {
		return fmt.Errorf("query %v over %v: engine returned %d objects, oracle %d",
			q.Range, q.Datasets, len(got), len(want))
	}
	return nil
}

// runConcurrentOracle fires workers goroutines of queriesEach random
// queries each at the shared Explorer, checking every result against the
// oracle.
func runConcurrentOracle(t *testing.T, env *oracleEnv, workers, queriesEach int) {
	t.Helper()
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for g := 0; g < workers; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + g)))
			for i := 0; i < queriesEach; i++ {
				if err := env.check(env.randomQuery(rng)); err != nil {
					errc <- fmt.Errorf("goroutine %d query %d: %w", g, i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestConcurrentQueriesMatchOracle is the main equivalence suite: 8
// goroutines of mixed popular/random queries, with the full pipeline
// (incremental indexing, refinement, merging) adapting underneath.
func TestConcurrentQueriesMatchOracle(t *testing.T) {
	env := newOracleEnv(t, Options{}, 3, 2000)
	runConcurrentOracle(t, env, 8, 20)
	if m := env.ex.Metrics(); m.Queries != 8*20 {
		t.Errorf("engine recorded %d queries, want %d", m.Queries, 8*20)
	}
}

// TestConcurrentQueriesMatchOracleNoMerge runs the same suite with merging
// disabled (the paper's ablation), so the octree read/refine split is
// exercised without the merge step's exclusive phases.
func TestConcurrentQueriesMatchOracleNoMerge(t *testing.T) {
	env := newOracleEnv(t, Options{DisableMerging: true}, 3, 2000)
	runConcurrentOracle(t, env, 8, 20)
	if n := env.ex.MergeFileCount(); n != 0 {
		t.Errorf("merging disabled but %d merge files exist", n)
	}
}

// TestConcurrentQueriesMatchOracleDeviceArray runs the main equivalence
// storm on a 2-device array with 2 channels per device: a dataset's files
// kept together on one member by group affinity, merge files dealt across
// members, every cache miss routed to a per-file channel head. Result sets
// must stay equal to the NaiveScan oracle — placement moves I/O between
// spindles, it must never change what a query returns. The cache case runs
// it with the result cache, and so scan sharing, on: the real-time emulation
// stretches device latencies into wall-clock windows so that queries attach
// to each other's in-flight reads under the race detector.
func TestConcurrentQueriesMatchOracleDeviceArray(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"affinity", Options{Devices: 2, Channels: 2}},
		{"cache", Options{Devices: 2, Channels: 2, CacheResults: true, RealTimeScale: 0.002}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := newOracleEnv(t, tc.opts, 3, 2000)
			if topo := env.ex.Topology(); topo.Devices != 2 || topo.Channels != 2 {
				t.Fatalf("Topology() = %+v, want 2 devices x 2 channels", topo)
			}
			runConcurrentOracle(t, env, 8, 20)
			if m := env.ex.Metrics(); m.Queries != 8*20 {
				t.Errorf("engine recorded %d queries, want %d", m.Queries, 8*20)
			}
			// Per-device counters must sum to the aggregate view.
			var sum DiskStats
			for _, s := range env.ex.DeviceStats() {
				sum.Add(s)
			}
			if sum != env.ex.DiskStats() {
				t.Errorf("DeviceStats sum %+v != DiskStats %+v", sum, env.ex.DiskStats())
			}
		})
	}
}

// TestConcurrentQueriesMatchOracleAsync is the stale-read regression for
// the asynchronous maintenance pipeline: the full oracle storm runs with
// AsyncMaintenance on, so queries race background refinements and staged
// merges the whole time. Every result must equal the oracle — in
// particular, a query racing a concurrent merge must never observe a
// partial merge file (the staged publish is atomic under the layout lock).
// After Quiesce the converged engine must still answer identically to the
// synchronous contract (the oracle), and no background task may have
// failed.
func TestConcurrentQueriesMatchOracleAsync(t *testing.T) {
	env := newOracleEnv(t, Options{AsyncMaintenance: true, MaintenanceWorkers: 3}, 3, 2000)
	defer env.ex.Close()
	runConcurrentOracle(t, env, 8, 20)
	if m := env.ex.Metrics(); m.Queries != 8*20 {
		t.Errorf("engine recorded %d queries, want %d", m.Queries, 8*20)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := env.ex.Quiesce(ctx); err != nil {
		t.Fatalf("Quiesce: %v", err)
	}
	if err := env.ex.MaintenanceErr(); err != nil {
		t.Fatalf("background maintenance task failed: %v", err)
	}
	st := env.ex.MaintenanceStats()
	if st.Queued == 0 || st.Completed != st.Queued-st.Dropped-st.Failed {
		t.Errorf("maintenance ledger does not balance: %+v", st)
	}
	// Post-quiesce results are identical to synchronous mode: both equal
	// the oracle on any workload, exercised here across the merge files the
	// storm built.
	rng := rand.New(rand.NewSource(515151))
	for i := 0; i < 16; i++ {
		if err := env.check(env.randomQuery(rng)); err != nil {
			t.Fatalf("post-quiesce query %d: %v", i, err)
		}
	}
}

// TestConcurrentQueriesMatchOracleAsyncDeviceArray runs the async storm on
// a 2x2 storage array: background maintenance I/O lands on per-channel
// heads across member devices and must never change what a query returns.
func TestConcurrentQueriesMatchOracleAsyncDeviceArray(t *testing.T) {
	env := newOracleEnv(t, Options{
		AsyncMaintenance: true, MaintenanceWorkers: 2,
		Devices: 2, Channels: 2,
	}, 3, 2000)
	defer env.ex.Close()
	runConcurrentOracle(t, env, 8, 15)
	if err := env.ex.Quiesce(context.Background()); err != nil {
		t.Fatalf("Quiesce: %v", err)
	}
	if err := env.ex.MaintenanceErr(); err != nil {
		t.Fatalf("background maintenance task failed: %v", err)
	}
	rng := rand.New(rand.NewSource(616161))
	for i := 0; i < 10; i++ {
		if err := env.check(env.randomQuery(rng)); err != nil {
			t.Fatalf("post-quiesce query %d: %v", i, err)
		}
	}
}

// TestConcurrentQueriesSmallCache forces heavy cache-eviction traffic
// through the sharded LRU while queries race (capacity far below the
// working set, so shards churn constantly).
func TestConcurrentQueriesSmallCache(t *testing.T) {
	env := newOracleEnv(t, Options{CachePages: 64}, 3, 1500)
	runConcurrentOracle(t, env, 8, 12)
}

// TestCancellationStormOracle is the cancellation contract under fire: 8
// goroutines issue queries with randomized deadlines — some already expired,
// some tight enough to fire mid-query, some generous — against a real-time
// emulated Explorer while it builds, refines and merges. Every completed
// result must still equal the NaiveScan oracle, every canceled query must
// return a wrapped ErrCanceled (matching its context cause) with no partial
// result, and the engine must serve correct un-canceled queries afterwards —
// no poisoned locks, no leaked exclusive holds, no half-applied refinements.
func TestCancellationStormOracle(t *testing.T) {
	env := newOracleEnv(t, Options{RealTimeScale: 0.01}, 3, 2000)
	var completed, canceled atomic.Int64
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(7000 + g)))
			for i := 0; i < 15; i++ {
				q := env.randomQuery(rng)
				ctx, cancel := context.Background(), context.CancelFunc(func() {})
				switch rng.Intn(4) {
				case 0: // impossible: dead before the query starts
					ctx, cancel = context.WithCancel(ctx)
					cancel()
				case 1: // tight: likely to fire mid-query
					ctx, cancel = context.WithTimeout(ctx,
						time.Duration(50+rng.Intn(1000))*time.Microsecond)
				case 2: // generous: must complete
					ctx, cancel = context.WithTimeout(ctx, time.Minute)
				default: // no deadline at all
				}
				got, err := env.ex.QueryCtx(ctx, q.Range, q.Datasets)
				cancel()
				if err != nil {
					if !IsCanceled(err) {
						errc <- fmt.Errorf("goroutine %d query %d: non-cancellation error %w", g, i, err)
						return
					}
					if !errors.Is(err, ErrCanceled) {
						errc <- fmt.Errorf("goroutine %d query %d: cancellation %v does not wrap ErrCanceled", g, i, err)
						return
					}
					if got != nil {
						errc <- fmt.Errorf("goroutine %d query %d: canceled query leaked a partial result (%d objects)", g, i, len(got))
						return
					}
					canceled.Add(1)
					continue
				}
				want, oerr := env.oracle.Query(q.Range, q.Datasets)
				if oerr != nil {
					errc <- oerr
					return
				}
				if !engine.SameObjects(got, want) {
					errc <- fmt.Errorf("goroutine %d query %d: completed under deadline pressure but engine returned %d objects, oracle %d",
						g, i, len(got), len(want))
					return
				}
				completed.Add(1)
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if canceled.Load() == 0 {
		t.Error("storm produced no canceled queries (pre-canceled contexts must at least fail fast)")
	}
	if completed.Load() == 0 {
		t.Error("storm produced no completed queries")
	}
	t.Logf("storm: %d completed, %d canceled, %d device ops aborted",
		completed.Load(), canceled.Load(), env.ex.DiskStats().CanceledOps)

	// The engine is not poisoned: fresh un-canceled queries still match the
	// oracle (and exercise merge files built during the storm).
	env.ex.SetRealTimeScale(0) // instant disk for the verification sweep
	rng := rand.New(rand.NewSource(424242))
	for i := 0; i < 12; i++ {
		if err := env.check(env.randomQuery(rng)); err != nil {
			t.Fatalf("post-storm query %d: %v", i, err)
		}
	}
}

// TestConcurrentAddDataset races dataset registration against a query
// storm on the already-registered datasets, then verifies the newcomers
// answer correctly too.
func TestConcurrentAddDataset(t *testing.T) {
	env := newOracleEnv(t, Options{}, 3, 1200)
	extra := GenerateDatasets(DataConfig{Seed: 99, NumObjects: 800, Clusters: 3}, 5)[3:]

	var wg sync.WaitGroup
	errc := make(chan error, 9)
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(2000 + g)))
			for i := 0; i < 10; i++ {
				if err := env.check(env.randomQuery(rng)); err != nil {
					errc <- err
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i, objs := range extra {
			// GenerateDatasets tagged these with ids 3 and 4 already.
			if err := env.ex.AddDataset(DatasetID(3+i), objs); err != nil {
				errc <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	if n := env.ex.NumDatasets(); n != 5 {
		t.Fatalf("NumDatasets = %d, want 5", n)
	}
	// The oracle was built before the extra datasets existed; rebuild it
	// and check a query spanning old and new data.
	raws := make([]*rawfile.Raw, 0, 5)
	for _, raw := range env.ex.raws {
		raws = append(raws, raw)
	}
	env.oracle = engine.NewNaiveScan(raws)
	env.nds = 5
	q := Query{Range: Cube(V(0.5, 0.5, 0.5), 0.2), Datasets: []DatasetID{0, 2, 3, 4}}
	if err := env.check(q); err != nil {
		t.Error(err)
	}
}
