package core

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"spaceodyssey/internal/engine"
	"spaceodyssey/internal/geom"
	"spaceodyssey/internal/object"
	"spaceodyssey/internal/octree"
)

// asyncConfig returns the default configuration with the background
// maintenance pipeline on.
func asyncConfig(workers int) Config {
	cfg := DefaultConfig()
	cfg.AsyncMaintenance = true
	cfg.MaintenanceWorkers = workers
	return cfg
}

// TestAsyncCoalescing pins the coalescing contract: with the scheduler
// frozen, N identical hot queries enqueue at most one refinement task per
// candidate partition and one merge task per combination — every duplicate
// demand is absorbed and counted in Coalesced.
func TestAsyncCoalescing(t *testing.T) {
	eng, _, _ := testSetup(t, 3, 3000, 11, asyncConfig(2))
	defer eng.Close()
	eng.maint.SetPaused(true)

	// Small enough to demand refinement of every level-1 cell it hits
	// (cell volume (1/4)^3 = 0.0156 >> rt * qVol).
	q := geom.Cube(geom.V(0.42, 0.42, 0.42), 0.1)
	dss := []object.DatasetID{0, 1, 2}

	if _, err := eng.Query(q, dss); err != nil {
		t.Fatal(err)
	}
	first := eng.MaintenanceStats()
	if first.Queued == 0 {
		t.Fatal("hot query enqueued no refinement tasks (query too large for the rt rule?)")
	}
	if first.Coalesced != 0 {
		t.Fatalf("first query already coalesced %d tasks", first.Coalesced)
	}

	const extra = 7
	for i := 0; i < extra; i++ {
		if _, err := eng.Query(q, dss); err != nil {
			t.Fatal(err)
		}
	}
	st := eng.MaintenanceStats()
	// Repeats add at most the one merge task (enqueued when the combination
	// crosses mt on the second query); every refinement demand must fold
	// into the already-pending tasks.
	if st.Queued > first.Queued+1 {
		t.Fatalf("%d identical queries queued %d tasks, want <= %d (first query's %d + 1 merge)",
			extra+1, st.Queued, first.Queued+1, first.Queued)
	}
	wantCoalesced := int64(extra)*first.Queued + (extra - 1) // refines + duplicate merges
	if st.Coalesced != wantCoalesced {
		t.Fatalf("Coalesced = %d, want %d", st.Coalesced, wantCoalesced)
	}
	if st.QueueDepthHighWater < int(first.Queued) {
		t.Fatalf("QueueDepthHighWater = %d, want >= %d", st.QueueDepthHighWater, first.Queued)
	}

	eng.maint.SetPaused(false)
	if err := eng.Quiesce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := eng.MaintenanceErr(); err != nil {
		t.Fatalf("maintenance task failed: %v", err)
	}
	done := eng.MaintenanceStats()
	if done.Completed != st.Queued {
		t.Fatalf("completed %d of %d queued tasks", done.Completed, st.Queued)
	}
	if done.Refinements == 0 {
		t.Fatal("maintenance applied no refinements")
	}
	if m := eng.Metrics(); m.Refinements == 0 {
		t.Fatal("engine metrics show no refinements after quiesce")
	}

	// Once converged, the same query demands nothing further.
	if _, err := eng.Query(q, dss); err != nil {
		t.Fatal(err)
	}
	if again := eng.MaintenanceStats(); again.Queued > done.Queued+1 {
		t.Fatalf("converged query enqueued %d new tasks", again.Queued-done.Queued)
	}
}

// TestAsyncConvergenceMatchesSync is the equivalence acceptance test: the
// same deterministic workload, replayed to quiescence on a synchronous and
// an asynchronous engine over identical data, must converge to an
// identical physical layout — same tree levels, same merge files with the
// same entries — and return identical result sets along the way. The async
// engine quiesces after every query so the maintenance stream observes the
// same layout states the inline pipeline does.
func TestAsyncConvergenceMatchesSync(t *testing.T) {
	syncEng, raws, _ := testSetup(t, 4, 2500, 21, DefaultConfig())
	asyncEng, _, _ := testSetup(t, 4, 2500, 21, asyncConfig(3))
	defer asyncEng.Close()
	oracle := engine.NewNaiveScan(raws)

	// A deterministic mixed workload: popular hot boxes (drive refinement
	// and merging of the 3-dataset combinations) plus colder probes.
	rng := rand.New(rand.NewSource(77))
	type wq struct {
		box geom.Box
		dss []object.DatasetID
	}
	var workload []wq
	hot := []geom.Box{
		geom.Cube(geom.V(0.3, 0.35, 0.4), 0.09),
		geom.Cube(geom.V(0.62, 0.55, 0.45), 0.11),
		geom.Cube(geom.V(0.45, 0.5, 0.52), 0.07),
	}
	combos := [][]object.DatasetID{
		{0, 1, 2}, {0, 1, 2, 3}, {1, 2, 3}, {0, 2}, {1},
	}
	for i := 0; i < 40; i++ {
		var box geom.Box
		if rng.Intn(3) > 0 {
			box = hot[rng.Intn(len(hot))]
		} else {
			box = geom.Cube(geom.V(rng.Float64(), rng.Float64(), rng.Float64()),
				0.04+0.1*rng.Float64())
		}
		workload = append(workload, wq{box: box, dss: combos[rng.Intn(len(combos))]})
	}

	// Replay passes until both engines are quiescent (no layout change over
	// a full pass), comparing result sets query by query.
	var syncSig, asyncSig string
	for pass := 0; pass < 6; pass++ {
		for i, w := range workload {
			got, err := syncEng.Query(w.box, w.dss)
			if err != nil {
				t.Fatalf("pass %d query %d sync: %v", pass, i, err)
			}
			gotAsync, err := asyncEng.Query(w.box, w.dss)
			if err != nil {
				t.Fatalf("pass %d query %d async: %v", pass, i, err)
			}
			if err := asyncEng.Quiesce(context.Background()); err != nil {
				t.Fatal(err)
			}
			want, err := oracle.Query(w.box, w.dss)
			if err != nil {
				t.Fatal(err)
			}
			if !engine.SameObjects(got, want) {
				t.Fatalf("pass %d query %d: sync engine diverges from oracle", pass, i)
			}
			if !engine.SameObjects(gotAsync, want) {
				t.Fatalf("pass %d query %d: async engine diverges from oracle", pass, i)
			}
		}
		s, a := syncEng.LayoutSignature(), asyncEng.LayoutSignature()
		if s == syncSig && a == asyncSig {
			break // both quiescent
		}
		syncSig, asyncSig = s, a
	}
	if err := asyncEng.MaintenanceErr(); err != nil {
		t.Fatalf("maintenance task failed: %v", err)
	}
	if syncSig != asyncSig {
		t.Errorf("converged layouts differ:\n--- sync ---\n%s\n--- async ---\n%s", syncSig, asyncSig)
	}
	if asyncEng.MergeFileCount() == 0 {
		t.Error("workload produced no merge files — the equivalence test is vacuous")
	}
	if m := asyncEng.Metrics(); m.Refinements == 0 {
		t.Error("workload produced no refinements — the equivalence test is vacuous")
	}
}

// TestMaintenanceCloseDrains pins Close's cancel-and-drain contract: queued
// tasks are dropped, the ledger balances, Quiesce returns immediately, and
// the engine still answers queries (without scheduling new work).
func TestMaintenanceCloseDrains(t *testing.T) {
	eng, raws, _ := testSetup(t, 3, 2000, 31, asyncConfig(2))
	eng.maint.SetPaused(true)
	q := geom.Cube(geom.V(0.4, 0.45, 0.5), 0.08)
	dss := []object.DatasetID{0, 1, 2}
	for i := 0; i < 3; i++ {
		if _, err := eng.Query(q, dss); err != nil {
			t.Fatal(err)
		}
	}
	if st := eng.MaintenanceStats(); st.QueueDepth == 0 {
		t.Fatal("nothing queued; the drain test is vacuous")
	}
	eng.Close()
	eng.Close() // idempotent

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := eng.Quiesce(ctx); err != nil {
		t.Fatalf("Quiesce after Close: %v", err)
	}
	st := eng.MaintenanceStats()
	if st.QueueDepth != 0 {
		t.Fatalf("queue depth %d after Close", st.QueueDepth)
	}
	if st.Queued != st.Completed+st.Failed+st.Dropped {
		t.Fatalf("ledger does not balance after Close: %+v", st)
	}
	if st.Dropped == 0 {
		t.Fatal("Close dropped nothing despite a paused, non-empty queue")
	}

	// Queries still answer correctly after Close — they just stop
	// scheduling maintenance.
	oracle := engine.NewNaiveScan(raws)
	got, err := eng.Query(q, dss)
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracle.Query(q, dss)
	if err != nil {
		t.Fatal(err)
	}
	if !engine.SameObjects(got, want) {
		t.Fatal("post-Close query diverges from oracle")
	}
	if after := eng.MaintenanceStats(); after.Queued != st.Queued {
		t.Fatalf("post-Close query enqueued maintenance: %d -> %d", st.Queued, after.Queued)
	}
}

// TestAsyncQuiesceCancellation checks that a Quiesce abandoned by its
// context returns a cancellation error while the pipeline keeps draining.
func TestAsyncQuiesceCancellation(t *testing.T) {
	eng, _, _ := testSetup(t, 3, 1500, 41, asyncConfig(1))
	defer eng.Close()
	eng.maint.SetPaused(true)
	if _, err := eng.Query(geom.Cube(geom.V(0.4, 0.4, 0.4), 0.08), []object.DatasetID{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := eng.Quiesce(ctx); err == nil {
		t.Fatal("Quiesce with a dead context and a frozen queue returned nil")
	}
	eng.maint.SetPaused(false)
	if err := eng.Quiesce(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestMaintenancePriorityHottestFirst pins the scheduler's priority rule:
// with tasks of different access counts queued, pickLocked pops the hottest
// region first, heat ties break FIFO — within a dataset's queue and between
// the tops of two datasets' — and a merge whose member is still refining
// yields to the hottest runnable one. The maintainer is constructed without
// workers so the test owns the queue.
func TestMaintenancePriorityHottestFirst(t *testing.T) {
	m := &maintainer{
		refineQ:       make(map[object.DatasetID]*heatHeap[refineTask]),
		refinePending: make(map[object.DatasetID]map[octree.Key]*heatItem[refineTask]),
		activeRefine:  make(map[object.DatasetID]bool),
	}
	m.cond = sync.NewCond(&m.mu)

	q := geom.Cube(geom.V(0.5, 0.5, 0.5), 0.1)
	cold := testKeyAt(1, 0, 0, 0)
	warm := testKeyAt(1, 1, 0, 0)
	hotK := testKeyAt(1, 2, 0, 0)
	members := testCombo(0)
	m.EnqueueRefine(0, []octree.Key{cold, warm, hotK}, q, 0.001, members)
	// Heat the tasks: warm gets one duplicate demand, hot gets three.
	m.EnqueueRefine(0, []octree.Key{warm}, q, 0.001, members)
	for i := 0; i < 3; i++ {
		m.EnqueueRefine(0, []octree.Key{hotK}, q, 0.001, members)
	}

	pop := func() (object.DatasetID, octree.Key) {
		t.Helper()
		m.mu.Lock()
		defer m.mu.Unlock()
		task, ok := m.pickLocked()
		if !ok {
			t.Fatal("queue empty")
		}
		if task.merge != nil {
			t.Fatal("merge popped before refinements drained")
		}
		// One writer per dataset: release the claim so the next pop works.
		delete(m.activeRefine, task.ds)
		return task.ds, task.refine.key
	}
	for i, want := range []octree.Key{hotK, warm, cold} {
		if _, k := pop(); k != want {
			t.Fatalf("pop %d = %v, want %v", i, k, want)
		}
	}

	// Equal heat: two demands each, on two datasets, first come first
	// served — across the datasets' queues as within one.
	first, second := testKeyAt(2, 0, 0, 0), testKeyAt(2, 1, 0, 0)
	m.EnqueueRefine(1, []octree.Key{first}, q, 0.001, members)
	m.EnqueueRefine(2, []octree.Key{second}, q, 0.001, members)
	m.EnqueueRefine(1, []octree.Key{second}, q, 0.001, members)
	m.EnqueueRefine(2, []octree.Key{first}, q, 0.001, members)
	for _, k := range []octree.Key{first, second} {
		m.EnqueueRefine(1, []octree.Key{k}, q, 0.001, members)
		m.EnqueueRefine(2, []octree.Key{k}, q, 0.001, members)
	}
	for i, want := range []struct {
		ds  object.DatasetID
		key octree.Key
	}{{1, first}, {2, second}, {1, second}, {2, first}} {
		if ds, k := pop(); ds != want.ds || k != want.key {
			t.Fatalf("tied pop %d = dataset %d %v, want dataset %d %v", i, ds, k, want.ds, want.key)
		}
	}

	// Merge heat: two combinations, the second demanded twice — it runs
	// first despite arriving later.
	merge := func() *combo {
		t.Helper()
		m.mu.Lock()
		defer m.mu.Unlock()
		task, ok := m.pickLocked()
		if !ok || task.merge == nil {
			t.Fatalf("no merge popped: %+v ok=%v", task, ok)
		}
		task.merge.merging = false
		return task.merge
	}
	a, b := testCombo(0, 1, 2), testCombo(1, 2, 3)
	m.EnqueueMerge(a)
	m.EnqueueMerge(b)
	m.EnqueueMerge(b)
	if c := merge(); c != b {
		t.Fatal("hot merge not popped first")
	}
	if c := merge(); c != a {
		t.Fatal("cold merge not popped second")
	}

	// A member still refining vetoes the hottest merge: the hottest
	// runnable one goes instead, and the vetoed one once the member is done.
	hot, warmC, coldC := testCombo(4, 5, 6), testCombo(0, 1, 2), testCombo(1, 2, 3)
	m.EnqueueMerge(coldC)
	m.EnqueueMerge(warmC)
	m.EnqueueMerge(warmC)
	for i := 0; i < 3; i++ {
		m.EnqueueMerge(hot)
	}
	m.mu.Lock()
	m.activeRefine[5] = true
	m.mu.Unlock()
	if c := merge(); c != warmC {
		t.Fatalf("popped %s past a busy member, want the hottest runnable %s", c.key, warmC.key)
	}
	m.mu.Lock()
	delete(m.activeRefine, 5)
	m.mu.Unlock()
	for i, want := range []*combo{hot, coldC} {
		if c := merge(); c != want {
			t.Fatalf("merge %d after the member finished = %s, want %s", i, c.key, want.key)
		}
	}
}
