package cluster

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	odyssey "spaceodyssey"
	"spaceodyssey/internal/simdisk"
)

// testData generates n clustered datasets shared by the cluster tests.
func testData(n int) [][]odyssey.Object {
	return odyssey.GenerateDatasets(odyssey.DataConfig{Seed: 23, NumObjects: 2000, Clusters: 3}, n)
}

// newCluster builds a Router and registers data on it.
func newCluster(t testing.TB, cfg Config, data [][]odyssey.Object) *Router {
	t.Helper()
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, objs := range data {
		if err := r.AddDataset(odyssey.DatasetID(i), objs); err != nil {
			r.Close()
			t.Fatal(err)
		}
	}
	return r
}

// newOracle builds the single-Explorer reference over the same datasets.
func newOracle(t testing.TB, opts odyssey.Options, data [][]odyssey.Object) *odyssey.Explorer {
	t.Helper()
	ex, err := odyssey.NewExplorer(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, objs := range data {
		if err := ex.AddDataset(odyssey.DatasetID(i), objs); err != nil {
			t.Fatal(err)
		}
	}
	return ex
}

// objKeys flattens a result set into sorted (dataset, id) keys for
// order-independent comparison.
func objKeys(objs []odyssey.Object) []int64 {
	keys := make([]int64, len(objs))
	for i, o := range objs {
		keys[i] = int64(o.Dataset)<<32 | int64(o.ID)
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
	return keys
}

// sameObjects reports whether two result sets hold the same objects.
func sameObjects(a, b []odyssey.Object) bool {
	if len(a) != len(b) {
		return false
	}
	ka, kb := objKeys(a), objKeys(b)
	for i := range ka {
		if ka[i] != kb[i] {
			return false
		}
	}
	return true
}

// TestPlacementGroups pins the fan-out grouping: datasets sharing a replica
// set form one group in first-appearance order, and unknown datasets keep
// the single-Explorer error contract.
func TestPlacementGroups(t *testing.T) {
	p := newPlacement(4)
	p.replicas[0] = []int{0, 1}
	p.replicas[1] = []int{1, 2}
	p.replicas[4] = []int{0, 1}

	gs, err := p.groups([]odyssey.DatasetID{1, 0, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(gs) != 2 {
		t.Fatalf("got %d groups, want 2: %+v", len(gs), gs)
	}
	if fmt.Sprint(gs[0].datasets) != "[1]" || fmt.Sprint(gs[0].replicas) != "[1 2]" {
		t.Fatalf("group 0 = %+v, want datasets [1] on [1 2]", gs[0])
	}
	if fmt.Sprint(gs[1].datasets) != "[0 4]" || fmt.Sprint(gs[1].replicas) != "[0 1]" {
		t.Fatalf("group 1 = %+v, want datasets [0 4] on [0 1]", gs[1])
	}

	if _, err := p.groups([]odyssey.DatasetID{0, 9}); err == nil {
		t.Fatal("unknown dataset did not error")
	}
}

// TestRingPlacement pins the replica layout: dataset d with replication r
// lives on shards (d+i) mod N, AddDatasetReplicated overrides the default
// factor, and duplicate registration errors.
func TestRingPlacement(t *testing.T) {
	data := odyssey.GenerateDatasets(odyssey.DataConfig{Seed: 7, NumObjects: 200, Clusters: 2}, 7)
	r, err := New(Config{Shards: 4, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := 0; i < 6; i++ {
		if err := r.AddDataset(odyssey.DatasetID(i), data[i]); err != nil {
			t.Fatal(err)
		}
	}
	for d := 0; d < 6; d++ {
		want := []int{d % 4, (d + 1) % 4}
		if got := r.Replicas(odyssey.DatasetID(d)); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("dataset %d replicas = %v, want %v", d, got, want)
		}
	}
	// Per-dataset override, clamped to the shard count.
	if err := r.AddDatasetReplicated(6, data[6], 9); err != nil {
		t.Fatal(err)
	}
	if got := r.Replicas(6); len(got) != 4 {
		t.Fatalf("replication 9 on 4 shards = %v, want all 4", got)
	}
	if err := r.AddDataset(3, data[3]); err == nil {
		t.Fatal("duplicate AddDataset did not error")
	}
	if got := r.Replicas(99); got != nil {
		t.Fatalf("unknown dataset replicas = %v, want nil", got)
	}
}

// TestLatencyTracker pins the hedge trigger: a cold tracker answers
// hedgeMinDelay, the p99 reflects the tail of the retained window, and the
// delay clamps into [hedgeMinDelay, hedgeMaxDelay].
func TestLatencyTracker(t *testing.T) {
	tr := newLatencyTracker()
	if d := tr.delay(); d != hedgeMinDelay {
		t.Fatalf("cold tracker delay = %v, want hedgeMinDelay %v", d, hedgeMinDelay)
	}
	for i := 0; i < 99; i++ {
		tr.observe(time.Millisecond)
	}
	tr.observe(500 * time.Millisecond)
	if got := tr.p99(); got != 500*time.Millisecond {
		t.Fatalf("p99 = %v, want the tail observation 500ms", got)
	}
	if d := tr.delay(); d != hedgeMaxDelay {
		t.Fatalf("delay = %v, want clamp to hedgeMaxDelay %v", d, hedgeMaxDelay)
	}
	// The ring retains only the window: overwrite the tail entirely.
	for i := 0; i < hedgeWindow; i++ {
		tr.observe(time.Millisecond)
	}
	if got := tr.p99(); got != time.Millisecond {
		t.Fatalf("p99 after the spike rolled out = %v, want 1ms", got)
	}
	if d := tr.delay(); d != hedgeMinDelay {
		t.Fatalf("delay = %v, want floor at hedgeMinDelay %v", d, hedgeMinDelay)
	}
}

// TestKnobCensus pins the cluster's serving knobs so they cannot re-accrete;
// the failure message carries the rule for whoever wants to add a field.
func TestKnobCensus(t *testing.T) {
	const rule = "a new knob needs two callers outside tests and examples that need different values — else make it a constant (see the ROADMAP standing constraint \"Knob rule\")"
	fields := func(v any) []string {
		var names []string
		typ := reflect.TypeOf(v)
		for i := 0; i < typ.NumField(); i++ {
			names = append(names, typ.Field(i).Name)
		}
		return names
	}
	if got, want := fields(Config{}), []string{"Shards", "Replicas", "Options", "Policy", "Failover", "Hedge"}; !slices.Equal(got, want) {
		t.Errorf("Config has fields %v, want %v: %s", got, want, rule)
	}
	if got, want := fields(HedgeConfig{}), []string{"Enabled"}; !slices.Equal(got, want) {
		t.Errorf("HedgeConfig has fields %v, want %v: %s", got, want, rule)
	}
}

// TestShardFaultPlanWindows pins the plan's ordinal arithmetic: every
// window is half-open [After, After+For), and the nil plan injects nothing.
func TestShardFaultPlanWindows(t *testing.T) {
	var nilPlan *ShardFaultPlan
	if nilPlan.crashed(0, 0) || nilPlan.slow(0, 0) != 0 {
		t.Fatal("nil plan injected a fault")
	}
	p := &ShardFaultPlan{Faults: []ShardFault{{
		Shard:      1,
		CrashAfter: 10, CrashFor: 5,
		SlowAfter: 20, SlowFor: 3, SlowDelay: 7 * time.Millisecond,
	}}}
	for ord, want := range map[int64]bool{9: false, 10: true, 14: true, 15: false} {
		if got := p.crashed(1, ord); got != want {
			t.Fatalf("crashed(1, %d) = %v, want %v", ord, got, want)
		}
	}
	if p.crashed(0, 12) {
		t.Fatal("crash window leaked onto another shard")
	}
	if d := p.slow(1, 20); d != 7*time.Millisecond {
		t.Fatalf("slow(1, 20) = %v, want 7ms", d)
	}
	if d := p.slow(1, 23); d != 0 {
		t.Fatalf("slow(1, 23) = %v, want 0 (window closed)", d)
	}
}

// TestFailoverSurvivesCrash pins availability through shard failure: with
// R=2 a crashed shard costs nothing visible (the live replica serves), a
// fully crashed replica set fails fast wrapping ErrNoReplica after walking
// every candidate, and restoring a shard restores serving.
func TestFailoverSurvivesCrash(t *testing.T) {
	data := testData(2)
	r := newCluster(t, Config{Shards: 2, Replicas: 2}, data)
	defer r.Close()
	ref := newOracle(t, odyssey.Options{}, data)
	defer ref.Close()

	q := odyssey.Cube(odyssey.V(0.3, 0.3, 0.3), 0.3)
	dss := []odyssey.DatasetID{0, 1}
	want, err := ref.Query(q, dss)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("reference query empty; test region misses the data")
	}

	got, err := r.Query(q, dss)
	if err != nil {
		t.Fatal(err)
	}
	if !sameObjects(got, want) {
		t.Fatalf("healthy cluster returned %d objects, oracle %d", len(got), len(want))
	}

	r.Crash(0)
	if h := r.Health(); !h[0].Down || h[1].Down {
		t.Fatalf("Health after Crash(0) = %+v, want shard 0 down and shard 1 up", h)
	}
	got, err = r.Query(q, dss)
	if err != nil {
		t.Fatalf("query with one of two replicas crashed: %v", err)
	}
	if !sameObjects(got, want) {
		t.Fatalf("one-replica answer diverged: %d objects, oracle %d", len(got), len(want))
	}

	r.Crash(1)
	if _, err := r.Query(q, dss); !errors.Is(err, ErrNoReplica) {
		t.Fatalf("query with every replica crashed = %v, want ErrNoReplica", err)
	} else if !errors.Is(err, ErrShardDown) {
		t.Fatalf("exhaustion error lost its cause: %v", err)
	}

	r.Restore(0)
	r.Restore(1)
	got, err = r.Query(q, dss)
	if err != nil {
		t.Fatalf("query after Restore: %v", err)
	}
	if !sameObjects(got, want) {
		t.Fatal("restored cluster diverged from the oracle")
	}

	st := r.Stats()
	if st.ShardRejects == 0 {
		t.Fatalf("no rejects ledgered from the crashed attempts: %+v", st)
	}
	if st.Failed != 1 || st.Served != 3 {
		t.Fatalf("outcome ledger = served %d / failed %d, want 3 / 1", st.Served, st.Failed)
	}
	if st.Retries == 0 || st.Failovers == 0 {
		t.Fatalf("walking the dead replica set ledgered no retries/failovers: %+v", st)
	}
	if st.Queries != st.Served+st.Partial+st.Failed {
		t.Fatalf("query ledger does not balance: %+v", st)
	}
}

// TestFailoverOnDeviceFault pins the promotion of device faults into the
// shard fault domain: a shard whose device fails every read costs a
// failover, not an error — the sub-query retries on the other replica and
// the caller never sees the fault.
func TestFailoverOnDeviceFault(t *testing.T) {
	data := testData(2)
	r := newCluster(t, Config{Shards: 2, Replicas: 2}, data)
	defer r.Close()
	ref := newOracle(t, odyssey.Options{}, data)
	defer ref.Close()

	// Every device read on shard 0 now faults permanently; the shard is not
	// down (its process is alive), so routing keeps trying it — the failover
	// path is what saves those queries. The two datasets'
	// replica arcs are (0,1) and (1,0) and the rotation follows the query's
	// ordinal, so one of every query's two groups tries shard 0 first.
	r.shards[0].ex.SetFaultPlan(odyssey.FaultPlan{Seed: 9, PermanentRate: 1})

	dss := []odyssey.DatasetID{0, 1}
	centers := []odyssey.Vec{
		odyssey.V(0.3, 0.3, 0.3), odyssey.V(0.7, 0.7, 0.7), odyssey.V(0.5, 0.4, 0.6),
		odyssey.V(0.25, 0.6, 0.45), odyssey.V(0.6, 0.3, 0.7), odyssey.V(0.4, 0.55, 0.35),
	}
	for i, c := range centers {
		q := odyssey.Cube(c, 0.08)
		want, err := ref.Query(q, dss)
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.Query(q, dss)
		if err != nil {
			t.Fatalf("query %d failed despite a healthy replica: %v", i, err)
		}
		if !sameObjects(got, want) {
			t.Fatalf("query %d diverged from the oracle: %d objects, want %d", i, len(got), len(want))
		}
	}
	st := r.Stats()
	if st.Served != int64(len(centers)) {
		t.Fatalf("served %d of %d", st.Served, len(centers))
	}
	if st.Failovers == 0 {
		t.Fatalf("a fully faulted replica cost no failover: %+v", st)
	}
}

// TestShardRepairsInsteadOfFailingOver is TestFailoverOnDeviceFault with the
// faults confined to derived data: a 2-shard R=2 cluster converges a zipf
// workload over all six datasets (so each replica group of three earns a
// merge file), then every page shard 0's tree and merge files hold goes
// permanently bad, its raw files untouched. The shard rebuilds what it
// cannot read instead of failing the sub-query: every query is served, equal
// to the oracle, and none fails over.
func TestShardRepairsInsteadOfFailingOver(t *testing.T) {
	data := testData(6)
	r := newCluster(t, Config{Shards: 2, Replicas: 2}, data)
	defer r.Close()
	ref := newOracle(t, odyssey.Options{}, data)
	defer ref.Close()
	w, err := odyssey.GenerateWorkload(odyssey.WorkloadConfig{
		Seed: 5, NumQueries: 60, NumDatasets: 6, DatasetsPerQuery: 6, QueryVolumeFrac: 1e-3,
		RangeDist: odyssey.RangeClustered, CombDist: odyssey.CombZipf, ClusterCenters: 3, SigmaFactor: 0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 3; pass++ {
		for i, q := range w.Queries {
			if _, err := r.Query(q.Range, q.Datasets); err != nil {
				t.Fatalf("pass %d query %d: %v", pass, i, err)
			}
		}
	}

	eng := r.shards[0].ex.Engine()
	var plan odyssey.FaultPlan
	add := func(id simdisk.FileID, pages int64) {
		for p := int64(0); p < pages; p++ {
			plan.Pages = append(plan.Pages, odyssey.PageFault{File: id, Page: p, Kind: odyssey.FaultPermanent})
		}
	}
	for id := range data {
		f := eng.Tree(odyssey.DatasetID(id)).File()
		n, err := f.NumPages()
		if err != nil {
			t.Fatal(err)
		}
		add(f.ID(), n)
	}
	for _, mf := range eng.Merger().Files() {
		add(mf.File().ID(), mf.Pages())
	}
	r.shards[0].ex.SetFaultPlan(plan)
	before := r.Stats()

	for i, q := range w.Queries {
		want, err := ref.Query(q.Range, q.Datasets)
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.Query(q.Range, q.Datasets)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if !sameObjects(got, want) {
			t.Fatalf("query %d diverged from the oracle: %d objects, want %d", i, len(got), len(want))
		}
	}
	st, m := r.Stats(), r.ShardMetrics()[0]
	t.Logf("%d faulted pages on shard 0: %d partitions re-derived, %d merge files evicted",
		len(plan.Pages), m.PartitionsRepaired, m.MergeFilesRepaired)
	if served, failovers := st.Served-before.Served, st.Failovers-before.Failovers; served != int64(len(w.Queries)) || failovers != 0 {
		t.Fatalf("served %d of %d with %d failovers, want all and none", served, len(w.Queries), failovers)
	}
	if m.PartitionsRepaired == 0 || m.MergeFilesRepaired == 0 {
		t.Fatalf("shard 0 repaired %d partitions and %d merge files; both kinds must be exercised",
			m.PartitionsRepaired, m.MergeFilesRepaired)
	}
}

// TestCrashWindowsMatchClosedForm holds shard crash windows to their closed
// form: the zipf hot-region workload through a 4-shard R=2 ServePartial
// cluster while shard 1 is down
// for the middle third of the replay and shard 2 for an overlapping eighth,
// so any dataset replicated exactly on that pair is unreachable for a while.
// Routing reads only shard.down at the query's ordinal, so every count is a
// function of the plan, the placement and the ordinal: two fresh routers
// agree, and both equal the closed form — a group is lost exactly when every
// replica is down at its ordinal, and a lost group walks all `attempts`
// candidates, costing attempts rejects and attempts-1 failovers (and
// retries). A group with one replica down costs nothing: the live replica is
// tried first. Every answer equals the single-Explorer oracle over the
// datasets it was served from.
func TestCrashWindowsMatchClosedForm(t *testing.T) {
	const shards, replicas, attempts = 4, 2, 3
	data := odyssey.GenerateDatasets(odyssey.DataConfig{Seed: 7, NumObjects: 2000, Clusters: 4}, 6)
	w, err := odyssey.GenerateWorkload(odyssey.WorkloadConfig{
		Seed: 12, NumQueries: 120, NumDatasets: 6, DatasetsPerQuery: 2, QueryVolumeFrac: 1e-3,
		RangeDist: odyssey.RangeClustered, CombDist: odyssey.CombZipf, ClusterCenters: 4, SigmaFactor: 0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	n := int64(len(w.Queries))
	plan := ShardFaultPlan{Faults: []ShardFault{
		{Shard: 1, CrashAfter: n / 4, CrashFor: n / 3},
		{Shard: 2, CrashAfter: n / 3, CrashFor: n / 8},
	}}

	// The closed form, from the plan and the ring placement (dataset d on
	// shards d, d+1 mod N; TestRingPlacement) alone.
	var want RouterStats
	var oneDown int
	missing := make([][]odyssey.DatasetID, n)
	for i, q := range w.Queries {
		lost := map[int]bool{} // lost groups of this query, by primary shard
		for _, ds := range q.Datasets {
			down := 0
			for k := 0; k < replicas; k++ {
				if plan.crashed((int(ds)+k)%shards, int64(i)) {
					down++
				}
			}
			switch down {
			case replicas:
				missing[i] = append(missing[i], ds)
				lost[int(ds)%shards] = true
			case 1:
				oneDown++
			}
		}
		switch len(missing[i]) {
		case 0:
			want.Served++
		case len(q.Datasets):
			want.Failed++
		default:
			want.Partial++
		}
		want.ShardRejects += int64(attempts * len(lost))
		want.Failovers += int64((attempts - 1) * len(lost))
	}
	want.Retries = want.Failovers
	if want.Partial == 0 || want.Failed == 0 || oneDown == 0 {
		t.Fatalf("the plan exercises too little: %d partial, %d failed, %d groups with one replica down",
			want.Partial, want.Failed, oneDown)
	}

	ref := newOracle(t, odyssey.Options{}, data)
	defer ref.Close()
	oracle := make([][]odyssey.Object, n)
	for i, q := range w.Queries {
		if oracle[i], err = ref.Query(q.Range, q.Datasets); err != nil {
			t.Fatal(err)
		}
	}
	counts := func(st RouterStats) RouterStats {
		return RouterStats{Served: st.Served, Partial: st.Partial, Failed: st.Failed,
			Failovers: st.Failovers, Retries: st.Retries, ShardRejects: st.ShardRejects}
	}
	run := func() RouterStats {
		r := newCluster(t, Config{
			Shards: shards, Replicas: replicas, Policy: ServePartial,
			Failover: odyssey.RetryPolicy{MaxAttempts: attempts, Backoff: 200 * time.Microsecond, Budget: 50 * time.Millisecond},
		}, data)
		defer r.Close()
		r.SetShardFaultPlan(plan)
		for i, q := range w.Queries {
			got, err := r.Query(q.Range, q.Datasets)
			var pe *PartialError
			switch {
			case err == nil && missing[i] == nil:
			case errors.As(err, &pe) && slices.Equal(pe.Missing, missing[i]):
			case errors.Is(err, ErrNoReplica) && !errors.Is(err, ErrPartial) && len(missing[i]) == len(q.Datasets):
				continue
			default:
				t.Fatalf("query %d: err %v, want datasets %v missing", i, err, missing[i])
			}
			served := slices.DeleteFunc(slices.Clone(oracle[i]), func(o odyssey.Object) bool {
				return slices.Contains(missing[i], o.Dataset)
			})
			if !sameObjects(got, served) {
				t.Fatalf("query %d: cluster returned %d objects, oracle %d over the served datasets", i, len(got), len(served))
			}
		}
		return counts(r.Stats())
	}
	first, second := run(), run()
	if first != second {
		t.Fatalf("two fresh routers disagree:\n%+v\n%+v", first, second)
	}
	if first != want {
		t.Fatalf("router counts %+v, closed form %+v", first, want)
	}
}

// TestPartialPolicy pins the graceful-degradation contract when a dataset
// has no live replica: FailFast fails the whole query wrapping ErrNoReplica;
// ServePartial answers from the reachable datasets with a *PartialError
// naming the missing ones; an all-missing query is a failure under either
// policy.
func TestPartialPolicy(t *testing.T) {
	data := testData(2)
	ref := newOracle(t, odyssey.Options{}, data)
	defer ref.Close()
	q := odyssey.Cube(odyssey.V(0.3, 0.3, 0.3), 0.3)
	dss := []odyssey.DatasetID{0, 1}
	wantDS0, err := ref.Query(q, []odyssey.DatasetID{0})
	if err != nil {
		t.Fatal(err)
	}
	if len(wantDS0) == 0 {
		t.Fatal("reference query empty; test region misses dataset 0")
	}

	t.Run("fail_fast", func(t *testing.T) {
		r := newCluster(t, Config{Shards: 2, Replicas: 1}, data)
		defer r.Close()
		r.Crash(1) // dataset 1's only replica
		if objs, err := r.Query(q, dss); !errors.Is(err, ErrNoReplica) {
			t.Fatalf("FailFast query = (%d objects, %v), want ErrNoReplica", len(objs), err)
		} else if errors.Is(err, ErrPartial) {
			t.Fatalf("FailFast produced a partial marker: %v", err)
		}
		// The reachable dataset alone still serves.
		got, err := r.Query(q, []odyssey.DatasetID{0})
		if err != nil {
			t.Fatal(err)
		}
		if !sameObjects(got, wantDS0) {
			t.Fatal("reachable dataset diverged from the oracle")
		}
	})

	t.Run("serve_partial", func(t *testing.T) {
		r := newCluster(t, Config{Shards: 2, Replicas: 1, Policy: ServePartial}, data)
		defer r.Close()
		r.Crash(1)
		got, err := r.Query(q, dss)
		if !errors.Is(err, ErrPartial) {
			t.Fatalf("ServePartial query error = %v, want ErrPartial", err)
		}
		var pe *PartialError
		if !errors.As(err, &pe) {
			t.Fatalf("partial error is not a *PartialError: %v", err)
		}
		if len(pe.Missing) != 1 || pe.Missing[0] != 1 {
			t.Fatalf("Missing = %v, want [1]", pe.Missing)
		}
		if !errors.Is(pe.Cause, ErrNoReplica) {
			t.Fatalf("partial cause = %v, want ErrNoReplica", pe.Cause)
		}
		if !sameObjects(got, wantDS0) {
			t.Fatalf("partial answer incomplete for the served dataset: %d objects, want %d",
				len(got), len(wantDS0))
		}
		// Nothing reachable is a failure, not an empty partial answer.
		if objs, err := r.Query(q, []odyssey.DatasetID{1}); err == nil || errors.Is(err, ErrPartial) {
			t.Fatalf("all-missing query = (%d objects, %v), want a plain failure", len(objs), err)
		}
		st := r.Stats()
		if st.Partial != 1 || st.Failed != 1 {
			t.Fatalf("outcome ledger = %+v, want 1 partial / 1 failed", st)
		}
		if st.Queries != st.Served+st.Partial+st.Failed {
			t.Fatalf("query ledger does not balance: %+v", st)
		}
	})
}

// TestClusterMatchesOracle pins the headline identity on a generated
// workload: a 4-shard R=2 cluster answers every query byte-identically to
// one Explorer over the union of the datasets, and the merged result set
// comes back in deterministic (dataset, id) order.
func TestClusterMatchesOracle(t *testing.T) {
	data := odyssey.GenerateDatasets(odyssey.DataConfig{Seed: 7, NumObjects: 4000, Clusters: 6}, 6)
	w, err := odyssey.GenerateWorkload(odyssey.WorkloadConfig{
		Seed: 42, NumQueries: 60, NumDatasets: 6, DatasetsPerQuery: 3,
		QueryVolumeFrac: 2e-4,
	})
	if err != nil {
		t.Fatal(err)
	}
	ref := newOracle(t, odyssey.Options{}, data)
	defer ref.Close()
	r := newCluster(t, Config{Shards: 4, Replicas: 2}, data)
	defer r.Close()

	nonEmpty := 0
	for i, q := range w.Queries {
		want, err := ref.Query(q.Range, q.Datasets)
		if err != nil {
			t.Fatal(err)
		}
		// Every third query names its first dataset twice; the cluster must
		// still answer like the oracle does for the set.
		asked := q.Datasets
		if i%3 == 0 {
			asked = append(append([]odyssey.DatasetID(nil), asked...), asked[0])
		}
		got, err := r.Query(q.Range, asked)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if !sameObjects(got, want) {
			t.Fatalf("query %d (datasets %v): cluster returned %d objects, oracle %d", i, asked, len(got), len(want))
		}
		for j := 1; j < len(got); j++ {
			a, b := got[j-1], got[j]
			if a.Dataset > b.Dataset || (a.Dataset == b.Dataset && a.ID >= b.ID) {
				t.Fatalf("query %d: merged result not in (dataset, id) order at %d", i, j)
			}
		}
		if len(got) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty == 0 {
		t.Fatal("workload returned nothing anywhere; identity was vacuous")
	}
	if st := r.Stats(); st.Served != int64(len(w.Queries)) || st.Queries != st.Served {
		t.Fatalf("ledger = %+v, want %d served", st, len(w.Queries))
	}
}

// TestHedgeChargeConservation pins the hedging cost contract under a
// slow-shard storm: hedges fire and win, results stay oracle-identical, and
// the cluster-wide charge ledger conserves exactly — every simulated
// duration any leg charged is attributed once, as ChargedSim (returned
// answers) or WastedSim (losers and failed legs), matching the shards'
// device-side ledger to the nanosecond. Hedging re-routes charges; it never
// double-counts them.
func TestHedgeChargeConservation(t *testing.T) {
	cost := odyssey.CostModel{
		Seek:     500 * time.Microsecond,
		Transfer: 25 * time.Microsecond,
		CacheHit: 200 * time.Nanosecond,
	}
	data := testData(2)
	r := newCluster(t, Config{
		Shards: 2, Replicas: 2,
		Options: odyssey.Options{Cost: cost},
		Hedge:   HedgeConfig{Enabled: true},
	}, data)
	ref := newOracle(t, odyssey.Options{Cost: cost}, data)
	defer ref.Close()

	dss := []odyssey.DatasetID{0, 1}
	centers := []odyssey.Vec{
		odyssey.V(0.3, 0.3, 0.3), odyssey.V(0.7, 0.7, 0.7), odyssey.V(0.5, 0.4, 0.6),
		odyssey.V(0.25, 0.6, 0.45), odyssey.V(0.6, 0.3, 0.7), odyssey.V(0.4, 0.55, 0.35),
	}
	// Warm phase: both shards converge their layouts with no faults.
	for _, c := range centers {
		if _, err := r.Query(odyssey.Cube(c, 0.08), dss); err != nil {
			t.Fatal(err)
		}
	}
	// Slow-shard storm on shard 0, open-ended: whenever rotation makes it
	// the primary, the sub-query stalls far past the hedge delay and the
	// hedge leg on shard 1 wins.
	r.SetShardFaultPlan(ShardFaultPlan{Faults: []ShardFault{{
		Shard: 0, SlowAfter: 0, SlowFor: 1 << 40, SlowDelay: 40 * time.Millisecond,
	}}})
	for i, c := range centers {
		q := odyssey.Cube(c, 0.07)
		want, err := ref.Query(q, dss)
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.Query(q, dss)
		if err != nil {
			t.Fatalf("query %d under the slow-shard storm: %v", i, err)
		}
		if !sameObjects(got, want) {
			t.Fatalf("query %d under hedging diverged from the oracle", i)
		}
	}

	// Close drains stray hedge losers, making both ledgers exact.
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	st := r.Stats()
	if st.HedgesFired == 0 || st.HedgeWins == 0 {
		t.Fatalf("slow-shard storm fired no winning hedges: %+v", st)
	}
	var want time.Duration
	for si, dev := range r.ShardChannelStats() {
		for _, chans := range dev {
			for _, ch := range chans {
				want += ch.Busy
			}
		}
		ds := r.ShardDiskStats()[si]
		want += time.Duration(ds.CacheHits)*cost.CacheHit + ds.QueuedDelay
	}
	if got := st.ChargedSim + st.WastedSim; got != want {
		t.Fatalf("charge conservation broken: charged %v + wasted %v = %v, device ledger %v",
			st.ChargedSim, st.WastedSim, got, want)
	}
	if st.ChargedSim == 0 {
		t.Fatal("no simulated time attributed to served answers")
	}
}
