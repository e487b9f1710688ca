package odyssey

import (
	"testing"
	"time"
)

// TestSharingStatsLedger drives a hot-region pooled workload twice — without
// and with the result cache, which carries scan sharing — and checks that
// (a) no cell read is shared without the cache, (b) the cached run reports
// saved work in its ledger and (c) both runs return identical result
// multisets.
func TestSharingStatsLedger(t *testing.T) {
	build := func(cache bool) (*Explorer, []BatchResult) {
		ex, err := NewExplorer(Options{
			CacheResults:       cache,
			DropCachesPerQuery: true, // the paper's cold-cache methodology: misses galore
			RealTimeScale:      0.002,
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

	// Level-0 builds are single-flight on every configuration, so waiting on
	// one is the only thing the ledger may count without the cache.
	if st := exOff.SharingStats(); st.AttachedScans != 0 {
		t.Fatalf("cache off but %d cell reads attached: %+v", st.AttachedScans, st)
	}
	st := exOn.SharingStats()
	if st.AttachedScans+st.SharedBuilds == 0 {
		t.Fatalf("hot-region pooled run shared nothing: %+v", st)
	}

	// Identical queries, identical answers — sharing and caching may only
	// change I/O.
	for i := range resOff {
		if resOff[i].Err != nil || resOn[i].Err != nil {
			t.Fatalf("query %d errored: off=%v on=%v", i, resOff[i].Err, resOn[i].Err)
		}
		if len(resOff[i].Objects) != len(resOn[i].Objects) {
			t.Fatalf("query %d: %d objects without the cache, %d with",
				i, len(resOff[i].Objects), len(resOn[i].Objects))
		}
	}
}

// TestBatchWindowDispatch pins the micro-batcher: every submission flows
// through the stage, grouped flushes are counted, every result is
// delivered, and Close flushes the stage before shutting the pool down.
func TestBatchWindowDispatch(t *testing.T) {
	ex, err := NewExplorer(Options{})
	if err != nil {
		t.Fatal(err)
	}
	data := GenerateDatasets(DataConfig{Seed: 11, NumObjects: 1000, Clusters: 3}, 3)
	for i, objs := range data {
		if err := ex.AddDataset(DatasetID(i), objs); err != nil {
			t.Fatal(err)
		}
	}
	d := NewDispatcherWithAdmission(ex, 4, AdmissionConfig{BatchWindow: 2 * time.Millisecond})
	const n = 40
	out := make(chan BatchResult, n)
	combos := [][]DatasetID{{0, 1, 2}, {1}, {0, 2}}
	for i := 0; i < n; i++ {
		q := Query{Range: Cube(V(0.4, 0.5, 0.5), 0.08), Datasets: combos[i%len(combos)]}
		if err := d.Submit(i, q, out); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	d.Close()
	close(out)
	seen := 0
	for r := range out {
		if r.Err != nil {
			t.Fatalf("query %d failed: %v", r.Index, r.Err)
		}
		seen++
	}
	if seen != n {
		t.Fatalf("delivered %d of %d batched results", seen, n)
	}
	st := d.AdmissionStats()
	if st.BatchedQueries != n {
		t.Fatalf("BatchedQueries = %d, want %d", st.BatchedQueries, n)
	}
	if st.Batches == 0 || st.Batches > n {
		t.Fatalf("Batches = %d, want in [1, %d]", st.Batches, n)
	}
	if st.Admitted != n {
		t.Fatalf("Admitted = %d, want %d", st.Admitted, n)
	}
}

// TestBatchGroupKey pins the grouping rule: same combination and same
// coarse cell collate, different combinations or distant centers do not.
func TestBatchGroupKey(t *testing.T) {
	ex, err := NewExplorer(Options{})
	if err != nil {
		t.Fatal(err)
	}
	d := NewDispatcher(ex, 1)
	defer d.Close()
	a := d.batchGroupKey(Query{Range: Cube(V(0.41, 0.42, 0.43), 0.02), Datasets: []DatasetID{2, 0, 1}})
	b := d.batchGroupKey(Query{Range: Cube(V(0.44, 0.41, 0.42), 0.03), Datasets: []DatasetID{0, 1, 2}})
	if a != b {
		t.Fatalf("same combo + same cell produced different keys: %q vs %q", a, b)
	}
	c := d.batchGroupKey(Query{Range: Cube(V(0.41, 0.42, 0.43), 0.02), Datasets: []DatasetID{0, 1}})
	if a == c {
		t.Fatal("different combinations share a group key")
	}
	e := d.batchGroupKey(Query{Range: Cube(V(0.95, 0.95, 0.95), 0.02), Datasets: []DatasetID{2, 0, 1}})
	if a == e {
		t.Fatal("distant centers share a group key")
	}
}

// TestExactChargeAttribution pins the arrival-aware contention model's
// attribution contract on every topology. Every query is billed its own
// service time (the old max-across-channels clock delta shadowed later
// serial queries on multi-channel topologies down to ~0), and the bills
// conserve: summed over a serial workload they equal the platters' total
// busy time plus cache-hit service plus recorded queueing delay — no
// charge is double-billed or dropped. On the 1x1 topology the sum must
// stay bit-for-bit identical to the device clock.
func TestExactChargeAttribution(t *testing.T) {
	cost := CostModel{
		Seek:     500 * time.Microsecond,
		Transfer: 25 * time.Microsecond,
		CacheHit: 200 * time.Nanosecond,
	}
	hot := Cube(V(0.3, 0.3, 0.3), 0.08)
	queries := []Query{
		{Range: hot, Datasets: []DatasetID{0, 1, 2}},
		{Range: hot, Datasets: []DatasetID{0, 1, 2}},
		{Range: Cube(V(0.6, 0.5, 0.4), 0.1), Datasets: []DatasetID{0, 1}},
		{Range: Cube(V(0.3, 0.3, 0.3), 0.06), Datasets: []DatasetID{0, 1, 2}},
		{Range: Cube(V(0.7, 0.7, 0.7), 0.05), Datasets: []DatasetID{2}},
		{Range: Cube(V(0.25, 0.35, 0.3), 0.07), Datasets: []DatasetID{0, 1, 2}},
	}
	data := GenerateDatasets(DataConfig{Seed: 7, NumObjects: 2000, Clusters: 3}, 3)

	run := func(t *testing.T, opts Options) (*Explorer, time.Duration) {
		t.Helper()
		opts.Cost = cost
		ex, err := NewExplorer(opts)
		if err != nil {
			t.Fatal(err)
		}
		for i, objs := range data {
			if err := ex.AddDataset(DatasetID(i), objs); err != nil {
				t.Fatal(err)
			}
		}
		var total time.Duration
		for qi, q := range queries {
			_, dt, err := ex.QueryTimed(q.Range, q.Datasets)
			if err != nil {
				t.Fatal(err)
			}
			if dt <= 0 {
				t.Errorf("query %d billed %v; every query must be charged its own service time", qi, dt)
			}
			total += dt
		}
		return ex, total
	}

	// conserved asserts sum(per-query bills) == busy + cache hits + queueing.
	conserved := func(t *testing.T, ex *Explorer, total time.Duration) {
		t.Helper()
		var busy time.Duration
		for _, dev := range ex.ChannelStats() {
			for _, ch := range dev {
				busy += ch.Busy
			}
		}
		stats := ex.DiskStats()
		want := busy + time.Duration(stats.CacheHits)*cost.CacheHit + stats.QueuedDelay
		if total != want {
			t.Fatalf("QueryTimed sum %v != busy %v + cache %v + queued %v = %v",
				total, busy, time.Duration(stats.CacheHits)*cost.CacheHit, stats.QueuedDelay, want)
		}
	}

	t.Run("1x1_matches_clock", func(t *testing.T) {
		ex, total := run(t, Options{})
		if clk := ex.Clock(); total != clk {
			t.Fatalf("serial 1x1 QueryTimed sum %v != device clock %v (must be bit-for-bit)", total, clk)
		}
		conserved(t, ex, total)
	})
	t.Run("2x2_conserves", func(t *testing.T) {
		ex, total := run(t, Options{Devices: 2, Channels: 2})
		conserved(t, ex, total)
	})
	t.Run("1x4_conserves", func(t *testing.T) {
		ex, total := run(t, Options{Channels: 4})
		conserved(t, ex, total)
	})
}
