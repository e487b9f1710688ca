package core

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spaceodyssey/internal/engine"
	"spaceodyssey/internal/geom"
	"spaceodyssey/internal/object"
	"spaceodyssey/internal/octree"
	"spaceodyssey/internal/simdisk"
)

// shareConfig returns the default configuration with scan sharing on.
func testKeyAt(level uint8, x, y, z uint32) octree.Key {
	return octree.Key{Level: level, X: x, Y: y, Z: z}
}

func shareConfig() Config {
	cfg := DefaultConfig()
	cfg.ShareScans = true
	return cfg
}

// TestShareScansOracleStorm fires concurrent mixed queries at a sharing
// engine while it builds, refines and merges, checking every result against
// the oracle — shared scans must change I/O, never answers.
func TestShareScansOracleStorm(t *testing.T) {
	eng, raws, _ := testSetup(t, 3, 2500, 17, shareConfig())
	oracle := engine.NewNaiveScan(raws)
	hot := []geom.Box{
		geom.Cube(geom.V(0.4, 0.45, 0.5), 0.08),
		geom.Cube(geom.V(0.55, 0.5, 0.45), 0.06),
	}
	combos := [][]object.DatasetID{{0, 1, 2}, {0, 1}, {2}, {1, 2}}
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				q := hot[(g+i)%len(hot)]
				dss := combos[(g*5+i)%len(combos)]
				got, err := eng.Query(q, dss)
				if err != nil {
					errc <- err
					return
				}
				want, err := oracle.Query(q, dss)
				if err != nil {
					errc <- err
					return
				}
				if !engine.SameObjects(got, want) {
					errc <- errDiverged(g, i)
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
	// The hot identical queries must have found sharing opportunities at
	// one layer or another; with a zero-cost instant device attachment is
	// timing-dependent, so only the single-flight build is guaranteed (8
	// goroutines, 3 datasets, exactly 3 builds must have run).
	if m := eng.Metrics(); m.TreesBuilt != 3 {
		t.Fatalf("TreesBuilt = %d, want 3", m.TreesBuilt)
	}
}

type divergedErr struct{ g, i int }

func (e divergedErr) Error() string {
	return "shared-scan query diverged from oracle"
}

func errDiverged(g, i int) error { return divergedErr{g, i} }

// TestShareScansSingleFlightBuild pins the first-touch contract: many
// concurrent queries of one cold dataset trigger exactly one level-0 build,
// and the waiters are counted in SharedBuilds.
func TestShareScansSingleFlightBuild(t *testing.T) {
	eng, _, dev := testSetup(t, 2, 3000, 23, shareConfig())
	// A real cost model makes the build take simulated time; the real-time
	// emulation stretches it into a wall-clock window concurrent queries
	// land in.
	_ = dev
	q := geom.Cube(geom.V(0.5, 0.5, 0.5), 0.05)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := eng.Query(q, []object.DatasetID{0, 1}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	m := eng.Metrics()
	if m.TreesBuilt != 2 {
		t.Fatalf("TreesBuilt = %d, want 2 (single-flight per dataset)", m.TreesBuilt)
	}
	// Level-0 build time must still be attributed (by the builder).
	if m.Phases.LevelZeroBuild < 0 {
		t.Fatalf("negative build time %v", m.Phases.LevelZeroBuild)
	}
}

// TestBuildWaitersObserveTheirContext pins why waiters of a level-0 build
// wait on the flight and not on the tree lock: a query that gives up while
// another query's build is still running returns at once, and the build is
// not disturbed. The test stands in for a slow build by holding the tree's
// lock itself, so the leader is parked inside the flight for as long as it
// likes.
func TestBuildWaitersObserveTheirContext(t *testing.T) {
	eng, _, _ := testSetup(t, 1, 500, 29, DefaultConfig())
	q := geom.Cube(geom.V(0.5, 0.5, 0.5), 0.05)
	eng.treeMu[0].Lock()
	leader := make(chan error, 1)
	go func() {
		_, err := eng.Query(q, []object.DatasetID{0})
		leader <- err
	}()
	for inflight := false; !inflight; runtime.Gosched() {
		eng.buildFlight.mu.Lock()
		_, inflight = eng.buildFlight.inflight[0]
		eng.buildFlight.mu.Unlock()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := eng.QueryCtx(ctx, q, []object.DatasetID{0}); !errors.Is(err, simdisk.ErrCanceled) {
		t.Fatalf("waiter returned %v while the build was still running, want ErrCanceled", err)
	}
	eng.treeMu[0].Unlock()
	if err := <-leader; err != nil {
		t.Fatalf("leader: %v", err)
	}
	if m := eng.Metrics(); m.TreesBuilt != 1 {
		t.Fatalf("TreesBuilt = %d, want 1", m.TreesBuilt)
	}
	if st := eng.SharingStats(); st.SharedBuilds != 1 {
		t.Fatalf("SharedBuilds = %d, want 1 (the waiter that gave up)", st.SharedBuilds)
	}
}

// TestScanRegistryAttachAndInvalidate drives the registry white-box with a
// hand-registered in-flight entry, so every interleaving is deterministic:
// a same-epoch reader attaches, a cross-epoch reader reads independently,
// and Invalidate flushes the entry so nobody attaches afterwards.
func TestScanRegistryAttachAndInvalidate(t *testing.T) {
	r := newScanRegistry()
	key := scanKey{ds: 1, cell: testKeyAt(1, 2, 3, 1)}
	want := []object.Object{{ID: 7, Dataset: 1}}

	// Register an entry as a leader mid-flight would.
	e := &scanEntry{epoch: 5, done: make(chan struct{})}
	r.mu.Lock()
	r.inflight[key] = e
	r.mu.Unlock()

	// A cross-epoch reader must not attach — it reads independently even
	// with the entry present.
	ownRead := false
	if _, err := r.readThrough(nil, key, 6, func(context.Context) ([]object.Object, error) {
		ownRead = true
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	if !ownRead {
		t.Fatal("cross-epoch reader did not perform its own read")
	}

	// Complete the leader's scan (fill, then close — the publish order the
	// real leader uses) and attach a same-epoch reader.
	e.objs = want
	close(e.done)
	got, err := r.readThrough(nil, key, 5, func(context.Context) ([]object.Object, error) {
		t.Error("attacher executed its own read despite a matching in-flight scan")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].ID != want[0].ID {
		t.Fatalf("attached read returned %v, want the leader's objects", got)
	}
	if n := r.attached.Load(); n != 1 {
		t.Fatalf("AttachedScans = %d, want 1", n)
	}

	// Invalidate flushes the registry: the next same-epoch reader performs
	// its own read even though the old entry matched its epoch.
	r.Invalidate()
	own2 := false
	if _, err := r.readThrough(nil, key, 5, func(context.Context) ([]object.Object, error) {
		own2 = true
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	if !own2 {
		t.Fatal("reader attached to an invalidated in-flight scan")
	}
	if n := r.invalidations.Load(); n != 1 {
		t.Fatalf("Invalidations = %d, want 1", n)
	}

	// A failed leader's outcome is not inherited: attachers fall back to
	// their own read.
	e2 := &scanEntry{epoch: 9, done: make(chan struct{})}
	e2.err = context.DeadlineExceeded
	close(e2.done)
	r.mu.Lock()
	r.inflight[key] = e2
	r.mu.Unlock()
	fellBack := false
	if _, err := r.readThrough(nil, key, 9, func(context.Context) ([]object.Object, error) {
		fellBack = true
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	if !fellBack {
		t.Fatal("attacher inherited the failed leader's outcome")
	}
}

// TestScanRegistryFailedLeaderSingleRetry is the herd-regression contract:
// when a leader's read fails, its waiters must re-enter the single-flight
// path so exactly one of them is charged the retry read — not one
// independent read per waiter, the thundering herd the registry exists to
// prevent. A doomed leader is registered by hand, a herd parks on it, and
// it is failed the way a real leader fails (deregister, then publish); the
// retry leader's read is gated so the rest of the herd attaches to it.
func TestScanRegistryFailedLeaderSingleRetry(t *testing.T) {
	r := newScanRegistry()
	key := scanKey{ds: 2, cell: testKeyAt(1, 1, 1, 0)}
	want := []object.Object{{ID: 42, Dataset: 2}}

	doomed := &scanEntry{epoch: 3, done: make(chan struct{})}
	r.mu.Lock()
	r.inflight[key] = doomed
	r.mu.Unlock()

	var reads atomic.Int64
	gate := make(chan struct{})
	read := func(context.Context) ([]object.Object, error) {
		reads.Add(1)
		<-gate
		return want, nil
	}
	const waiters = 8
	results := make([][]object.Object, waiters)
	errs := make([]error, waiters)
	var wg sync.WaitGroup
	for g := 0; g < waiters; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[g], errs[g] = r.readThrough(nil, key, 3, read)
		}()
	}

	// Fail the leader in the order a real one publishes: deregister under
	// the lock, then close done. Every parked waiter wakes and loops back;
	// mutex serialization makes exactly one the retry leader. (A goroutine
	// that never parked on the doomed entry attaches to the retry leader's
	// registration instead — same coalescing, same count.)
	doomed.err = context.DeadlineExceeded
	r.mu.Lock()
	delete(r.inflight, key)
	r.mu.Unlock()
	close(doomed.done)

	// Hold the retry leader's read open until the rest of the herd has had
	// time to loop back and attach, then release it.
	deadline := time.Now().Add(5 * time.Second)
	for reads.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no waiter retried the failed leader's read")
		}
		time.Sleep(100 * time.Microsecond)
	}
	time.Sleep(100 * time.Millisecond)
	close(gate)
	wg.Wait()

	for g := 0; g < waiters; g++ {
		if errs[g] != nil {
			t.Fatalf("waiter %d inherited the dead leader's outcome: %v", g, errs[g])
		}
		if len(results[g]) != 1 || results[g][0].ID != want[0].ID {
			t.Fatalf("waiter %d got %v, want the retry leader's objects", g, results[g])
		}
	}
	if n := reads.Load(); n != 1 {
		t.Fatalf("failed leader triggered %d retry reads, want exactly 1 (thundering herd)", n)
	}
	if n := r.attached.Load(); n != waiters-1 {
		t.Fatalf("AttachedScans = %d, want %d (every non-leader attached the retry)", n, waiters-1)
	}
}

// TestMaintenancePriorityHottestFirst pins the scheduler's priority rule:
// with tasks of different access counts queued, pickLocked pops the hottest
// region first, and heat ties break FIFO. The maintainer is constructed
// without workers so the test owns the queue.
func TestMaintenancePriorityHottestFirst(t *testing.T) {
	m := &maintainer{
		refineQ:       make(map[object.DatasetID]*heatHeap[refineTask]),
		refinePending: make(map[object.DatasetID]map[octree.Key]*heatItem[refineTask]),
		activeRefine:  make(map[object.DatasetID]bool),
		mergePending:  make(map[ComboKey]*heatItem[mergeTask]),
		activeMerge:   make(map[ComboKey]bool),
	}
	m.cond = sync.NewCond(&m.mu)

	q := geom.Cube(geom.V(0.5, 0.5, 0.5), 0.1)
	cold := testKeyAt(1, 0, 0, 0)
	warm := testKeyAt(1, 1, 0, 0)
	hotK := testKeyAt(1, 2, 0, 0)
	members := []object.DatasetID{0}
	m.EnqueueRefine(0, []octree.Key{cold, warm, hotK}, q, 0.001, members)
	// Heat the tasks: warm gets one duplicate demand, hot gets three.
	m.EnqueueRefine(0, []octree.Key{warm}, q, 0.001, members)
	for i := 0; i < 3; i++ {
		m.EnqueueRefine(0, []octree.Key{hotK}, q, 0.001, members)
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	pop := func() octree.Key {
		task, ok := m.pickLocked()
		if !ok {
			t.Fatal("queue empty")
		}
		if task.isMerge {
			t.Fatal("merge popped before refinements drained")
		}
		// One writer per dataset: release the claim so the next pop works.
		delete(m.activeRefine, task.ds)
		return task.refine.key
	}
	if k := pop(); k != hotK {
		t.Fatalf("first pop = %v, want the hottest %v", k, hotK)
	}
	if k := pop(); k != warm {
		t.Fatalf("second pop = %v, want %v", k, warm)
	}
	if k := pop(); k != cold {
		t.Fatalf("third pop = %v, want %v", k, cold)
	}

	// Merge heat: two combinations, the second demanded twice — it runs
	// first despite arriving later.
	a := KeyOf([]object.DatasetID{0, 1, 2})
	b := KeyOf([]object.DatasetID{1, 2, 3})
	m.mu.Unlock()
	m.EnqueueMerge(a, []object.DatasetID{0, 1, 2})
	m.EnqueueMerge(b, []object.DatasetID{1, 2, 3})
	m.EnqueueMerge(b, []object.DatasetID{1, 2, 3})
	m.mu.Lock()
	task, ok := m.pickLocked()
	if !ok || !task.isMerge || task.merge.key != b {
		t.Fatalf("hot merge not popped first: %+v ok=%v", task, ok)
	}
	task, ok = m.pickLocked()
	if !ok || !task.isMerge || task.merge.key != a {
		t.Fatalf("cold merge not popped second: %+v ok=%v", task, ok)
	}
}
