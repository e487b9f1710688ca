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
	p := newPlacement()
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
// lives on shards (d+i) mod N, a factor above the shard count clamps to it,
// and duplicate registration errors.
func TestRingPlacement(t *testing.T) {
	data := odyssey.GenerateDatasets(odyssey.DataConfig{Seed: 7, NumObjects: 200, Clusters: 2}, 6)
	r := newCluster(t, Config{Shards: 4, Replicas: 2}, data)
	defer r.Close()
	for d := 0; d < 6; d++ {
		want := []int{d % 4, (d + 1) % 4}
		if got := r.place.replicas[odyssey.DatasetID(d)]; fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("dataset %d replicas = %v, want %v", d, got, want)
		}
	}
	if err := r.AddDataset(3, data[3]); err == nil {
		t.Fatal("duplicate AddDataset did not error")
	}
	all := newCluster(t, Config{Shards: 4, Replicas: 9}, data[:1])
	defer all.Close()
	if got := all.place.replicas[0]; len(got) != 4 {
		t.Fatalf("replication 9 on 4 shards = %v, want all 4", got)
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
	if got, want := fields(Config{}), []string{"Shards", "Replicas", "Options"}; !slices.Equal(got, want) {
		t.Errorf("Config has fields %v, want %v: %s", got, want, rule)
	}
}

// TestShardFaultPlanWindows pins the plan's ordinal arithmetic: every
// window is half-open [After, After+For), and the nil plan injects nothing.
func TestShardFaultPlanWindows(t *testing.T) {
	var nilPlan *ShardFaultPlan
	if nilPlan.crashed(0, 0) {
		t.Fatal("nil plan injected a fault")
	}
	p := &ShardFaultPlan{Faults: []ShardFault{{Shard: 1, CrashAfter: 10, CrashFor: 5}}}
	for ord, want := range map[int64]bool{9: false, 10: true, 14: true, 15: false} {
		if got := p.crashed(1, ord); got != want {
			t.Fatalf("crashed(1, %d) = %v, want %v", ord, got, want)
		}
	}
	if p.crashed(0, 12) {
		t.Fatal("crash window leaked onto another shard")
	}
}

// TestFailoverSurvivesCrash pins availability through shard failure: with
// R=2 a crashed shard costs nothing visible (the live replica serves), a
// fully crashed replica set fails fast wrapping ErrNoReplica after walking
// every candidate, and the end of the crash windows restores serving. The
// plan's windows, in query ordinals: query 0 healthy, query 1 with shard 0
// down, query 2 with both down, query 3 healthy again.
func TestFailoverSurvivesCrash(t *testing.T) {
	data := testData(2)
	r := newCluster(t, Config{Shards: 2, Replicas: 2}, data)
	defer r.Close()
	ref := newOracle(t, odyssey.Options{}, data)
	defer ref.Close()
	r.SetShardFaultPlan(ShardFaultPlan{Faults: []ShardFault{
		{Shard: 0, CrashAfter: 1, CrashFor: 2},
		{Shard: 1, CrashAfter: 2, CrashFor: 1},
	}})

	q := odyssey.Cube(odyssey.V(0.3, 0.3, 0.3), 0.3)
	dss := []odyssey.DatasetID{0, 1}
	want, err := ref.Query(q, dss)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("reference query empty; test region misses the data")
	}

	for ord, state := range []string{"healthy", "shard 0 crashed", "every replica crashed", "restored"} {
		got, err := r.Query(q, dss)
		if ord == 2 {
			if !errors.Is(err, ErrNoReplica) {
				t.Fatalf("query with %s = %v, want ErrNoReplica", state, err)
			} else if !errors.Is(err, ErrShardDown) {
				t.Fatalf("exhaustion error lost its cause: %v", err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("query %s: %v", state, err)
		}
		if !sameObjects(got, want) {
			t.Fatalf("query %s returned %d objects, oracle %d", state, len(got), len(want))
		}
	}

	st := r.Stats()
	if st.ShardRejects == 0 {
		t.Fatalf("no rejects ledgered from the crashed attempts: %+v", st)
	}
	if st.Failed != 1 || st.Served != 3 {
		t.Fatalf("outcome ledger = served %d / failed %d, want 3 / 1", st.Served, st.Failed)
	}
	if st.Failovers == 0 {
		t.Fatalf("walking the dead replica set ledgered no failovers: %+v", st)
	}
	if st.Queries != st.Served+st.Failed {
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
// form: the zipf hot-region workload through a 4-shard R=2 cluster while
// shard 1 is down for the middle third of the replay and shard 2 for an
// overlapping eighth, so any dataset replicated exactly on that pair is
// unreachable for a while. Routing reads only shard.down at the query's
// ordinal, so every count is a function of the plan, the placement and the
// ordinal: two fresh routers agree, and both equal the closed form — a group
// is lost exactly when every replica is down at its ordinal, a lost group
// tries each of its replicas once, costing R rejects and R-1 failovers, and
// a query with a lost group fails. A group with one replica down costs
// nothing: the live replica is tried first. Every served answer equals the
// single-Explorer oracle.
func TestCrashWindowsMatchClosedForm(t *testing.T) {
	const shards, replicas = 4, 2
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
	lost := make([]bool, n)
	for i, q := range w.Queries {
		groups := map[int]bool{} // lost groups of this query, by primary shard
		for _, ds := range q.Datasets {
			down := 0
			for k := 0; k < replicas; k++ {
				if plan.crashed((int(ds)+k)%shards, int64(i)) {
					down++
				}
			}
			switch down {
			case replicas:
				groups[int(ds)%shards] = true
			case 1:
				oneDown++
			}
		}
		if lost[i] = len(groups) > 0; lost[i] {
			want.Failed++
		} else {
			want.Served++
		}
		want.ShardRejects += int64(replicas * len(groups))
		want.Failovers += int64((replicas - 1) * len(groups))
	}
	if want.Failed == 0 || oneDown == 0 {
		t.Fatalf("the plan exercises too little: %d failed, %d groups with one replica down", want.Failed, oneDown)
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
		return RouterStats{Served: st.Served, Failed: st.Failed, Failovers: st.Failovers, ShardRejects: st.ShardRejects}
	}
	run := func() RouterStats {
		r := newCluster(t, Config{Shards: shards, Replicas: replicas}, data)
		defer r.Close()
		r.SetShardFaultPlan(plan)
		for i, q := range w.Queries {
			got, err := r.Query(q.Range, q.Datasets)
			switch {
			case lost[i] && errors.Is(err, ErrNoReplica):
			case lost[i] || err != nil:
				t.Fatalf("query %d: err %v, want a failure exactly when a dataset is unreachable (%v)", i, err, lost[i])
			case !sameObjects(got, oracle[i]):
				t.Fatalf("query %d: cluster returned %d objects, oracle %d", i, len(got), len(oracle[i]))
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

// TestPartialPolicy pins what a query returns when a requested dataset has
// no live replica: the whole query fails wrapping ErrNoReplica — never a
// truncated answer — while a query naming only reachable datasets serves.
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
		// Shard 1 holds dataset 1's only replica, down for good.
		r.SetShardFaultPlan(ShardFaultPlan{Faults: []ShardFault{{Shard: 1, CrashFor: 1 << 40}}})
		if objs, err := r.Query(q, dss); !errors.Is(err, ErrNoReplica) || objs != nil {
			t.Fatalf("query = (%d objects, %v), want no objects and ErrNoReplica", len(objs), err)
		}
		// The reachable dataset alone still serves.
		got, err := r.Query(q, []odyssey.DatasetID{0})
		if err != nil {
			t.Fatal(err)
		}
		if !sameObjects(got, wantDS0) {
			t.Fatal("reachable dataset diverged from the oracle")
		}
		if st := r.Stats(); st.Served != 1 || st.Failed != 1 || st.Queries != st.Served+st.Failed {
			t.Fatalf("outcome ledger = %+v, want 1 served / 1 failed", st)
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

// TestFailoverChargeConservation pins the cost contract under failover:
// shard 0's device fails reads often enough that its legs exhaust their
// retries and fail over to shard 1, results stay oracle-identical, and the
// cluster-wide charge ledger conserves exactly — every simulated duration
// any leg charged is attributed once, as ChargedSim (returned answers) or
// WastedSim (failed legs), matching the shards' device-side ledger to the
// nanosecond. Failover re-routes charges; it never double-counts them. The
// failover legs run after the first round, in group order, so a fresh
// cluster charges the same to the nanosecond on every repetition.
func TestFailoverChargeConservation(t *testing.T) {
	cost := odyssey.CostModel{
		Seek:     500 * time.Microsecond,
		Transfer: 25 * time.Microsecond,
		CacheHit: 200 * time.Nanosecond,
	}
	data := testData(2)
	ref := newOracle(t, odyssey.Options{Cost: cost}, data)
	defer ref.Close()
	dss := []odyssey.DatasetID{0, 1}
	var queries []odyssey.Box
	var wants [][]odyssey.Object
	for _, c := range []odyssey.Vec{
		odyssey.V(0.3, 0.3, 0.3), odyssey.V(0.7, 0.7, 0.7), odyssey.V(0.5, 0.4, 0.6), odyssey.V(0.25, 0.6, 0.45),
	} {
		q := odyssey.Cube(c, 0.08)
		want, err := ref.Query(q, dss)
		if err != nil {
			t.Fatal(err)
		}
		queries, wants = append(queries, q), append(wants, want)
	}

	var first RouterStats
	for rep := range 8 {
		r := newCluster(t, Config{Shards: 2, Replicas: 2, Options: odyssey.Options{Cost: cost}}, data)
		r.shards[0].ex.SetFaultPlan(odyssey.FaultPlan{Seed: 9, TransientRate: 0.3})
		for i, q := range queries {
			got, err := r.Query(q, dss)
			if err != nil {
				t.Fatalf("repetition %d: query %d failed despite a healthy replica: %v", rep, i, err)
			}
			if !sameObjects(got, wants[i]) {
				t.Fatalf("repetition %d: query %d under failover diverged from the oracle", rep, i)
			}
		}
		if err := r.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		// Every query has one group whose rotation tries shard 0 first, and at
		// this seed each of those legs fails after charging some reads.
		st := r.Stats()
		if st.Failovers != int64(len(queries)) || st.WastedSim == 0 {
			t.Fatalf("repetition %d: %d failovers wasting %v, want one a query wasting more than nothing: %+v",
				rep, st.Failovers, st.WastedSim, st)
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
			t.Fatalf("repetition %d: charge conservation broken: charged %v + wasted %v = %v, device ledger %v",
				rep, st.ChargedSim, st.WastedSim, got, want)
		}
		if st.ChargedSim == 0 {
			t.Fatal("no simulated time attributed to served answers")
		}
		if rep == 0 {
			first = st
		} else if st.ChargedSim != first.ChargedSim || st.WastedSim != first.WastedSim {
			t.Fatalf("repetition %d charged %v and wasted %v, repetition 0 %v and %v",
				rep, st.ChargedSim, st.WastedSim, first.ChargedSim, first.WastedSim)
		}
	}
}
