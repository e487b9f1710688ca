package cluster

// Race-mode oracle storm for the cluster layer: the drift scenario replayed
// through a 4-shard R=2 cluster from many submitting goroutines at once —
// with a shard crash window mid-storm — must return byte-identical results
// to a single Explorer over the union of the datasets, serve every query,
// and leak no goroutines. `go test -race ./cluster` sweeps the router
// fan-out, failover and the fault windows under contention.

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	odyssey "spaceodyssey"
	"spaceodyssey/internal/workload"
)

// stormWorkload is the drift scenario the root package's adaptive storm
// uses, over the same six datasets.
func stormWorkload(t *testing.T) ([][]odyssey.Object, workload.ScenarioWorkload) {
	t.Helper()
	data := odyssey.GenerateDatasets(odyssey.DataConfig{Seed: 7, NumObjects: 4000, Clusters: 6}, 6)
	w, err := workload.GenerateScenario("drift", workload.ScenarioConfig{
		Seed: 99, NumQueries: 120, NumDatasets: 6, DatasetsPerQuery: 2,
		QueryVolumeFrac: 2e-4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return data, w
}

// TestClusterStormMatchesOracle is the acceptance storm: 8 concurrent
// submitters through a 4-shard R=2 cluster whose fault plan crashes one
// shard mid-storm. Every answer must be byte-identical to the
// single-Explorer oracle, every query must be served (a crashed shard with
// a live replica is a failover, never an outage), and Close must wind every
// goroutine down.
func TestClusterStormMatchesOracle(t *testing.T) {
	before := runtime.NumGoroutine()
	data, w := stormWorkload(t)
	ref := newOracle(t, odyssey.Options{}, data)
	want := make([][]odyssey.Object, len(w.Queries))
	for i, q := range w.Queries {
		objs, err := ref.Query(q.Range, q.Datasets)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = objs
	}
	ref.Close()

	r := newCluster(t, Config{Shards: 4, Replicas: 2}, data)
	// Deterministic weather, in query ordinals: shard 1 crashes for a third
	// of the storm.
	r.SetShardFaultPlan(ShardFaultPlan{Faults: []ShardFault{{Shard: 1, CrashAfter: 20, CrashFor: 40}}})

	got := make([][]odyssey.Object, len(w.Queries))
	const stormers = 8
	var wg sync.WaitGroup
	for s := 0; s < stormers; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := s; i < len(w.Queries); i += stormers {
				objs, err := r.Query(w.Queries[i].Range, w.Queries[i].Datasets)
				if err != nil {
					t.Errorf("query %d failed mid-storm: %v", i, err)
					return
				}
				got[i] = objs
			}
		}(s)
	}
	wg.Wait()
	if t.Failed() {
		r.Close()
		t.Fatalf("storm availability broken; stats: %+v", r.Stats())
	}
	for i := range want {
		if !sameObjects(got[i], want[i]) {
			t.Fatalf("query %d: cluster returned %d objects, oracle %d",
				i, len(got[i]), len(want[i]))
		}
	}

	st := r.Stats()
	if st.Served != int64(len(w.Queries)) || st.Failed != 0 {
		t.Fatalf("outcome ledger = %+v, want all %d served", st, len(w.Queries))
	}
	if st.Queries != st.Served+st.Failed {
		t.Fatalf("query ledger does not balance: %+v", st)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close after the storm: %v", err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && runtime.NumGoroutine() > before+2 {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before+2 {
		t.Errorf("goroutines did not settle after Close: %d before, %d after", before, g)
	}
}

// TestRouterCloseDuringStorm mirrors the Explorer's mid-storm close test
// one fault domain up: Close lands while queries are in flight against a
// cluster whose shards crash in turn, so some queries fail over and some
// find no live replica. Every goroutine — submitters, shard maintenance
// pipelines — must wind down, the maintenance ledgers must balance, and the
// closed Router must fail fast with ErrClosed everywhere.
func TestRouterCloseDuringStorm(t *testing.T) {
	before := runtime.NumGoroutine()
	data := testData(3)
	r := newCluster(t, Config{
		Shards: 2, Replicas: 2,
		Options: odyssey.Options{AsyncMaintenance: true, MaintenanceWorkers: 2},
	}, data)
	// Shard 0 is down for queries 4 to 11 and shard 1 from the ninth query
	// on: the storm walks through failover, lost groups and recovery.
	r.SetShardFaultPlan(ShardFaultPlan{Faults: []ShardFault{
		{Shard: 0, CrashAfter: 4, CrashFor: 8},
		{Shard: 1, CrashAfter: 8, CrashFor: 1 << 40},
	}})

	hot := odyssey.Cube(odyssey.V(0.4, 0.45, 0.5), 0.1)
	dss := []odyssey.DatasetID{0, 1, 2}
	const submitters, each = 8, 4
	returned := make(chan struct{}, submitters*each)
	var wg sync.WaitGroup
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < each; j++ {
				r.Query(hot, dss) // failovers, ErrNoReplica and ErrClosed all expected
				returned <- struct{}{}
			}
		}()
	}
	// Close once a quarter of the queries have returned: the rest are in
	// flight or yet to be submitted.
	for i := 0; i < submitters*each/4; i++ {
		<-returned
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close mid-storm: %v", err)
	}
	wg.Wait()
	if err := r.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	// The closed Router fails fast everywhere.
	if _, err := r.Query(hot, dss); !errors.Is(err, ErrClosed) {
		t.Errorf("Query after Close = %v, want ErrClosed", err)
	}
	if _, err := r.QueryCtx(context.Background(), hot, dss); !errors.Is(err, ErrClosed) {
		t.Errorf("QueryCtx after Close = %v, want ErrClosed", err)
	}
	extra := odyssey.GenerateDatasets(odyssey.DataConfig{Seed: 18, NumObjects: 100, Clusters: 1}, 4)[3]
	if err := r.AddDataset(3, extra); !errors.Is(err, ErrClosed) {
		t.Errorf("AddDataset after Close = %v, want ErrClosed", err)
	}

	// Every shard's maintenance ledger balances: Close drained the
	// pipelines before closing the devices.
	for i, s := range r.shards {
		if st := s.ex.MaintenanceStats(); st.Queued != st.Completed+st.Failed+st.Dropped {
			t.Errorf("shard %d maintenance ledger does not balance after Close: %+v", i, st)
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && runtime.NumGoroutine() > before+2 {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before+2 {
		t.Errorf("goroutines did not settle after mid-storm Close: %d before, %d after", before, g)
	}
}
