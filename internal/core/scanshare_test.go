package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
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

func testKeyAt(level uint32, x, y, z uint32) octree.Key {
	return octree.Key{Level: level, X: x, Y: y, Z: z}
}

// cacheConfig returns the default configuration with the result cache, and
// with it scan sharing, on.
func cacheConfig() Config {
	cfg := DefaultConfig()
	cfg.CacheResults = true
	return cfg
}

// TestShareScansOracleStorm fires concurrent mixed queries at a caching, so
// scan-sharing, engine while it builds, refines and merges, checking every
// result against the oracle — shared and cached scans must change I/O, never
// answers.
func TestShareScansOracleStorm(t *testing.T) {
	eng, raws, _ := testSetup(t, 3, 2500, 17, cacheConfig())
	oracle := engine.NewNaiveScan(raws)
	hot := []geom.Box{
		geom.Cube(geom.V(0.4, 0.45, 0.5), 0.08),
		geom.Cube(geom.V(0.55, 0.5, 0.45), 0.06),
	}
	combos := [][]object.DatasetID{{0, 1, 2}, {0, 1}, {2}, {1, 2}}
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for g := 0; g < 8; g++ {
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
					errc <- fmt.Errorf("goroutine %d query %d diverged from the oracle", g, i)
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

// TestShareScansSingleFlightBuild pins the first-touch contract, which holds
// on every configuration, the paper's included: many concurrent queries of
// one cold dataset trigger exactly one level-0 build, and the waiters are
// counted in SharedBuilds.
func TestShareScansSingleFlightBuild(t *testing.T) {
	eng, _, _ := testSetup(t, 2, 3000, 23, DefaultConfig())
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

// attachSpy is a context that reports every Done call. flightGroup.Do asks a
// caller's context for its Done channel only once the caller has committed
// to another's flight (readCell asks nowhere else), so one signal is one
// reader attached: the tests below wait on that instead of sleeping.
type attachSpy struct {
	context.Context
	attached chan<- struct{}
}

func (c attachSpy) Done() <-chan struct{} {
	c.attached <- struct{}{}
	return c.Context.Done()
}

// sharedCell is the fixture of the readCell tests: an engine, one cell of
// dataset 0, and a read of it held in flight until the test lets it go.
type sharedCell struct {
	eng  *Odyssey
	cell octree.Key
	// attached receives one signal per reader that attached through spy.
	attached chan struct{}
	spy      context.Context
}

func newSharedCell(t *testing.T, cfg Config) *sharedCell {
	eng, _, _ := testSetup(t, 1, 100, 41, cfg)
	attached := make(chan struct{}, 64) // every signal of a test fits: nobody blocks in Done
	return &sharedCell{
		eng: eng, cell: testKeyAt(1, 2, 3, 1), attached: attached,
		spy: attachSpy{context.Background(), attached},
	}
}

func (c *sharedCell) read(ctx context.Context, read func(context.Context) ([]object.Object, error)) ([]object.Object, error) {
	got, err := c.eng.readCell(ctx, 0, c.cell, geom.UnitBox(), func(ctx context.Context) (cellContent, error) {
		objs, err := read(ctx)
		return cellContent{objs: objs}, err
	})
	return got.objs, err
}

// lead starts a read of the cell that stays in flight until release is
// called, then finishes with (objs, err); outcome delivers what the leader's
// readCell returned. lead returns once the read is registered.
func (c *sharedCell) lead(objs []object.Object, err error) (release func(), outcome <-chan error) {
	started, gate, out := make(chan struct{}), make(chan struct{}), make(chan error, 1)
	go func() {
		_, rerr := c.read(context.Background(), func(context.Context) ([]object.Object, error) {
			close(started)
			<-gate
			return objs, err
		})
		out <- rerr
	}()
	<-started
	return func() { close(gate) }, out
}

func (c *sharedCell) awaitAttached(n int) {
	for i := 0; i < n; i++ {
		<-c.attached
	}
}

// TestReadCellConcurrentReadersShareOneRead pins scan sharing's contract and
// when it runs: exactly when the result cache is on. With it, N concurrent
// readers of one cell cost one device read, and the N-1 that attached are
// counted in AttachedScans. Without it, every reader reads the device itself,
// none attaches, and the tree keeps its pooled direct partition read.
func TestReadCellConcurrentReadersShareOneRead(t *testing.T) {
	for _, cache := range []bool{true, false} {
		t.Run(fmt.Sprintf("cache=%v", cache), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.CacheResults = cache
			c := newSharedCell(t, cfg)
			want := []object.Object{{ID: 7, Dataset: 0}}
			// A reader that reads the device holds its read open until every
			// reader has arrived, so that none is cached before all have looked.
			const readers = 8
			var reads atomic.Int64
			gate := make(chan struct{})
			var wg sync.WaitGroup
			for g := 0; g < readers; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got, err := c.read(c.spy, func(context.Context) ([]object.Object, error) {
						reads.Add(1)
						c.attached <- struct{}{} // arrived, as a reader of its own
						<-gate
						return want, nil
					})
					if err != nil || len(got) != 1 || got[0].ID != want[0].ID {
						t.Errorf("read returned %v, %v; want the cell's objects", got, err)
					}
				}()
			}
			c.awaitAttached(readers)
			close(gate)
			wg.Wait()
			wantReads, wantAttached := int64(1), int64(readers-1)
			if !cache {
				wantReads, wantAttached = readers, 0
			}
			if n := reads.Load(); n != wantReads {
				t.Errorf("%d readers read the device, want %d", n, wantReads)
			}
			if n := c.eng.SharingStats().AttachedScans; n != wantAttached {
				t.Errorf("AttachedScans = %d, want %d", n, wantAttached)
			}
			if hooked := c.eng.trees[0].ShareReader != nil; hooked != cache {
				t.Errorf("tree partition reads go through readCell: %v, want %v", hooked, cache)
			}
		})
	}
}

// TestReadCellRetainedSlicesNeverPooled is the oracle for the one way buffer
// reuse could corrupt an answer: a cell read the result cache retains, or
// attached queries share, must never be a pooled slice — a later reader's
// scratch would overwrite it. Two probes fill the cache, one through merge
// segments (three datasets: merged once the layout settles), one through
// tree leaves (two datasets, elsewhere: never merged); a second engine in the
// paper preset (own device and data: the pools are process-wide) then cycles
// every pool with a few hundred queries over other cells — refinement
// sources and slabs, merge-copy sources, private leaf and segment reads,
// results; then the probes are answered again from the cache, from several
// goroutines, while the churn goes on, and every reply is compared with a
// brute-force scan. Under -race a pooled cached slice is a reported race as
// well.
func TestReadCellRetainedSlicesNeverPooled(t *testing.T) {
	eng, raws, _ := testSetup(t, 3, 4000, 31, cacheConfig())
	churn, _, _ := testSetup(t, 3, 4000, 32, DefaultConfig())
	type probe struct {
		q    geom.Box
		dss  []object.DatasetID
		want []object.Object
	}
	probes := []*probe{
		{q: geom.Cube(geom.V(0.5, 0.5, 0.5), 0.1), dss: []object.DatasetID{0, 1, 2}},
		{q: geom.Cube(geom.V(0.25, 0.3, 0.7), 0.1), dss: []object.DatasetID{0, 1}},
	}
	ask := func(p *probe) error {
		got, err := eng.Query(p.q, p.dss)
		if err != nil {
			return err
		}
		engine.SortObjects(got)
		if !slices.Equal(got, p.want) {
			return fmt.Errorf("the reply to %v over %v differs from the brute-force scan", p.q, p.dss)
		}
		return nil
	}
	cycle := func(seed int64, queries int) error {
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < queries; i++ {
			at := geom.V(r.Float64(), r.Float64(), r.Float64())
			if _, err := churn.Query(geom.Cube(at, 0.02+0.1*r.Float64()), probes[0].dss); err != nil {
				return err
			}
		}
		return nil
	}

	oracle := engine.NewNaiveScan(raws)
	for _, p := range probes {
		var err error
		if p.want, err = oracle.Query(p.q, p.dss); err != nil {
			t.Fatal(err)
		}
		if len(p.want) == 0 {
			t.Fatalf("%v matches nothing: the test would compare empty replies", p.q)
		}
		engine.SortObjects(p.want)
	}
	// Refinements and the merge step flush the cache, so ask until the
	// layout stops moving: the last round leaves every probe's cells cached.
	for i := 0; ; i++ {
		epoch := eng.layoutEpoch.Load()
		for _, p := range probes {
			if err := ask(p); err != nil {
				t.Fatal(err)
			}
		}
		if eng.layoutEpoch.Load() == epoch {
			break
		}
		if i == 20 {
			t.Fatal("the probes are still changing the layout after 20 rounds")
		}
	}
	if m := eng.Metrics(); m.PartitionsFromMerge == 0 || m.PartitionsFromTree == 0 {
		t.Fatalf("the probes read %d segments and %d leaves; they must exercise both", m.PartitionsFromMerge, m.PartitionsFromTree)
	}
	before := eng.CacheStats()
	if err := cycle(1, 300); err != nil {
		t.Fatal(err)
	}

	const askers, asks = 4, 6
	errc := make(chan error, askers+1)
	var wg sync.WaitGroup
	for g := 0; g < askers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < asks; i++ {
				if err := ask(probes[(g+i)%len(probes)]); err != nil {
					errc <- err
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := cycle(2, 100); err != nil {
			errc <- err
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	after := eng.CacheStats()
	if got := after.ZeroReadQueries - before.ZeroReadQueries; got != askers*asks {
		t.Fatalf("%d of the %d repeated asks were answered without a device read; all should come from the cache", got, askers*asks)
	}
}

// TestReadCellNeverAttachesAcrossEpochs: a layout publish while a read is in
// flight moves later readers of the cell to a new flight key — the reader at
// epoch e+1 performs its own read and is not counted as attached.
func TestReadCellNeverAttachesAcrossEpochs(t *testing.T) {
	c := newSharedCell(t, cacheConfig())
	release, leader := c.lead(nil, nil)
	c.eng.bumpLayoutEpoch()
	ownRead := false
	if _, err := c.read(c.spy, func(context.Context) ([]object.Object, error) {
		ownRead = true
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	if !ownRead {
		t.Fatal("a reader attached to a read that started before the layout publish")
	}
	release()
	if err := <-leader; err != nil {
		t.Fatal(err)
	}
	if n := c.eng.SharingStats().AttachedScans; n != 0 {
		t.Fatalf("AttachedScans = %d, want 0", n)
	}
}

// TestReadCellFailedLeaderSingleRetry is the herd-regression contract: when a
// leader's read fails, its waiters neither inherit the failure nor each fall
// back to an independent read — they re-enter the flight, so exactly one of
// them performs the retry and the rest attach to it.
func TestReadCellFailedLeaderSingleRetry(t *testing.T) {
	c := newSharedCell(t, cacheConfig())
	want := []object.Object{{ID: 42, Dataset: 0}}
	fail, leader := c.lead(nil, context.DeadlineExceeded)

	var reads atomic.Int64
	retryGate := make(chan struct{})
	const waiters = 8
	var wg sync.WaitGroup
	for g := 0; g < waiters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := c.read(c.spy, func(context.Context) ([]object.Object, error) {
				reads.Add(1)
				<-retryGate
				return want, nil
			})
			if err != nil || len(got) != 1 || got[0].ID != want[0].ID {
				t.Errorf("waiter got %v, %v; want the retry leader's objects", got, err)
			}
		}()
	}
	c.awaitAttached(waiters) // the whole herd is parked on the doomed read
	fail()
	if err := <-leader; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("leader returned %v, want its own read's error", err)
	}
	// The retry leader's read is held open until the rest of the herd has
	// come back round and attached to it.
	c.awaitAttached(waiters - 1)
	close(retryGate)
	wg.Wait()
	if n := reads.Load(); n != 1 {
		t.Fatalf("failed leader triggered %d retry reads, want exactly 1 (thundering herd)", n)
	}
	if n := c.eng.SharingStats().AttachedScans; n != waiters-1 {
		t.Fatalf("AttachedScans = %d, want %d (every non-leader attached the retry)", n, waiters-1)
	}
}

// TestReadCellWaiterObservesItsContext: a reader attached to another query's
// read returns as soon as its own context expires; the read in flight is not
// disturbed.
func TestReadCellWaiterObservesItsContext(t *testing.T) {
	c := newSharedCell(t, cacheConfig())
	release, leader := c.lead(nil, nil)
	ctx, cancel := context.WithCancel(context.Background())
	waiter := make(chan error, 1)
	go func() {
		_, err := c.read(attachSpy{ctx, c.attached}, func(context.Context) ([]object.Object, error) {
			t.Error("the waiter performed its own device read")
			return nil, nil
		})
		waiter <- err
	}()
	c.awaitAttached(1)
	cancel()
	if err := <-waiter; !errors.Is(err, simdisk.ErrCanceled) {
		t.Fatalf("waiter returned %v while the read was still in flight, want ErrCanceled", err)
	}
	release()
	if err := <-leader; err != nil {
		t.Fatalf("leader: %v", err)
	}
	if n := c.eng.SharingStats().AttachedScans; n != 0 {
		t.Fatalf("AttachedScans = %d, want 0 (the waiter gave up)", n)
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
