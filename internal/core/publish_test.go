package core

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spaceodyssey/internal/datagen"
	"spaceodyssey/internal/engine"
	"spaceodyssey/internal/geom"
	"spaceodyssey/internal/object"
	"spaceodyssey/internal/octree"
	"spaceodyssey/internal/rawfile"
	"spaceodyssey/internal/simdisk"
)

// parkingStorage parks the next run read of one armed file until the test
// releases it: a query parked inside a merge-segment read holds the engine's
// shared layout lock for as long as the test wants, with no sleep.
type parkingStorage struct {
	simdisk.Storage
	armed   atomic.Int64 // 1 + the FileID whose next run read parks; 0: none
	parked  chan struct{}
	release chan struct{}
}

func (s *parkingStorage) arm(id simdisk.FileID) { s.armed.Store(int64(id) + 1) }

func (s *parkingStorage) ReadRunCtx(ctx context.Context, id simdisk.FileID, start, n int64) ([]byte, error) {
	if a := int64(id) + 1; s.armed.Load() == a && s.armed.CompareAndSwap(a, 0) {
		close(s.parked)
		<-s.release
	}
	return s.Storage.ReadRunCtx(ctx, id, start, n)
}

// TestSharedMergePublishesBesideAParkedReader parks a query inside a read of
// the combination's merge file — it holds the shared layout lock — and runs
// two shared merge steps meanwhile: one that extends the file must publish,
// and one that stages nothing must return, neither waiting for the reader.
// The parked query keeps reading the version it routed to: its result equals
// the oracle's and it is served no segment the step published, which the
// next query is.
func TestSharedMergePublishesBesideAParkedReader(t *testing.T) {
	dev := simdisk.NewDevice(simdisk.CostModel{}, 0)
	store := &parkingStorage{Storage: dev, parked: make(chan struct{}), release: make(chan struct{})}
	var releaseOnce sync.Once
	unpark := func() { releaseOnce.Do(func() { close(store.release) }) }
	t.Cleanup(unpark) // a failed step must not leave the reader parked

	dss := []object.DatasetID{0, 1, 2}
	raws := make([]*rawfile.Raw, len(dss))
	for i, objs := range datagen.GenerateDatasets(datagen.Config{Seed: 61, NumObjects: 3000, Clusters: 6}, len(dss)) {
		raw, err := rawfile.Write(store, "ds", dss[i], objs)
		if err != nil {
			t.Fatal(err)
		}
		raws[i] = raw
	}
	eng, err := New(store, raws, geom.UnitBox(), asyncConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	eng.maint.SetPaused(true) // the test runs every merge step itself
	oracle := engine.NewNaiveScan(raws)
	key := KeyOf(dss)
	ctx := context.Background()
	query := func(q geom.Box) []object.Object {
		t.Helper()
		got, err := eng.Query(q, dss)
		if err != nil {
			t.Fatal(err)
		}
		want, err := oracle.Query(q, dss)
		if err != nil {
			t.Fatal(err)
		}
		if !engine.SameObjects(got, want) {
			t.Fatalf("query %v: %d objects, oracle %d", q, len(got), len(want))
		}
		return got
	}
	fromMerge := func() int { return eng.Metrics().PartitionsFromMerge }

	// Two windows inside two level-1 cells (k = 4), and one spanning both.
	first := geom.Cube(geom.V(0.375, 0.375, 0.375), 0.04)
	second := geom.Cube(geom.V(0.625, 0.375, 0.375), 0.04)
	wide := geom.NewBox(geom.V(0.35, 0.35, 0.35), geom.V(0.65, 0.4, 0.4))

	// The combination crosses mt on first's cell, which is merged.
	query(first)
	query(first)
	if err := eng.mergeStep(ctx, key, dss); err != nil {
		t.Fatal(err)
	}
	v1 := eng.merger.file(key)
	if v1 == nil || v1.NumEntries() != 1 {
		t.Fatalf("first merge step: file %v, want one entry", v1)
	}
	// second's cell becomes a candidate; wide is served v1's segments.
	query(second)
	before := fromMerge()
	query(wide)
	servedV1 := fromMerge() - before
	if servedV1 != len(dss) {
		t.Fatalf("wide was served %d segments of the merged cell, want %d", servedV1, len(dss))
	}

	store.arm(v1.File().ID())
	before = fromMerge()
	type result struct {
		objs []object.Object
		err  error
	}
	parkedResult := make(chan result, 1)
	go func() {
		objs, err := eng.Query(wide, dss)
		parkedResult <- result{objs, err}
	}()
	select {
	case <-store.parked:
	case r := <-parkedResult:
		t.Fatalf("the reader finished (%v) without reading the merge file", r.err)
	}

	// step runs a merge step while the reader is parked. A step that waits
	// for the reader never returns: the deadline only bounds that failure.
	step := func(what string) {
		t.Helper()
		done := make(chan error, 1)
		go func() { done <- eng.mergeStep(ctx, key, dss) }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		case <-time.After(time.Minute):
			t.Fatalf("%s did not return while a reader held the shared layout lock", what)
		}
	}
	step("a merge step that extends the file")
	v2 := eng.merger.file(key)
	if v2 == v1 || v2.NumEntries() != 2 || v1.NumEntries() != 1 {
		t.Fatalf("after the extending step: version changed %v, entries %d (old version %d), want a new version of 2 beside the old one of 1",
			v2 != v1, v2.NumEntries(), v1.NumEntries())
	}
	step("a merge step that stages nothing")
	if eng.merger.file(key) != v2 {
		t.Fatal("a merge step that staged nothing published a version")
	}
	eng.statsMu.Lock()
	_, marked := eng.futile[key]
	eng.statsMu.Unlock()
	if !marked {
		t.Fatal("a merge step that staged nothing left no futility mark")
	}

	unpark()
	r := <-parkedResult
	if r.err != nil {
		t.Fatalf("parked reader: %v", r.err)
	}
	if want, _ := oracle.Query(wide, dss); !engine.SameObjects(r.objs, want) {
		t.Fatalf("parked reader: %d objects, oracle %d", len(r.objs), len(want))
	}
	if got := fromMerge() - before; got != servedV1 {
		t.Fatalf("the parked reader was served %d segments, want the %d of the version it routed to", got, servedV1)
	}
	before = fromMerge()
	query(wide)
	if got := fromMerge() - before; got != 2*len(dss) {
		t.Fatalf("a later query was served %d segments, want %d: both merged cells", got, 2*len(dss))
	}
}

// TestExclusivePublishCopiesNothing holds the paper path's publish to what it
// always was: under the exclusive lock an existing file's entries are
// extended in place — the same version, no copy of its entries map — while a
// publish beside readers installs a new version and leaves the old one as it
// was.
func TestExclusivePublishCopiesNothing(t *testing.T) {
	dev := simdisk.NewDevice(simdisk.CostModel{}, 0)
	m := NewMerger(dev, MergerConfig{})
	dss := []object.DatasetID{1, 2, 3}
	mf := mkMergeFile(m, dev, dss...)
	const cells = 64
	staged := make(map[scanKey]segment, cells*len(dss))
	order := make([]octree.Key, 0, cells)
	for i := range cells {
		cell := octree.Key{Level: 1, X: uint32(i % 4), Y: uint32(i / 4 % 4), Z: uint32(i / 16)}
		order = append(order, cell)
		for _, ds := range dss {
			mf.entries[scanKey{ds: ds, cell: cell}] = segment{count: 1}
			staged[scanKey{ds: ds, cell: cell}] = segment{count: 2}
		}
	}
	st := &stagedMerge{key: mf.combo, mf: mf, entries: staged, order: order}
	// Every staged key is already an entry, so an in-place publish cannot
	// grow the map: any allocation is a copy.
	if n := testing.AllocsPerRun(20, func() { m.publish(st, false) }); n != 0 {
		t.Fatalf("exclusive publish of an existing file allocated %.0f times, want 0", n)
	}
	if m.file(mf.combo) != mf || mf.NumEntries() != cells {
		t.Fatal("exclusive publish replaced the file's version")
	}

	cell := octree.Key{Level: 2}
	st = &stagedMerge{key: mf.combo, mf: mf, entries: map[scanKey]segment{}, order: []octree.Key{cell}}
	for _, ds := range dss {
		st.entries[scanKey{ds: ds, cell: cell}] = segment{count: 3}
	}
	m.publish(st, true)
	next := m.file(mf.combo)
	if next == mf || next.NumEntries() != cells+1 || mf.NumEntries() != cells {
		t.Fatalf("publish beside readers: new version %v with %d entries, old version %d entries; want a new version of %d beside the old of %d",
			next != mf, next.NumEntries(), mf.NumEntries(), cells+1, cells)
	}
	if next.lastUsed != mf.lastUsed {
		t.Fatal("versions of one file do not share their recency cell")
	}
}

// TestSharedPublishIsWholeWhenRoutable publishes versions of one merge file
// beside readers that route to it with no lock, as queries do: every version
// a reader can find must already hold every member's segment of each of its
// cells. Under -race, a version made routable before its entries are
// complete is reported as a race as well.
func TestSharedPublishIsWholeWhenRoutable(t *testing.T) {
	dev := simdisk.NewDevice(simdisk.CostModel{}, 0)
	m := NewMerger(dev, MergerConfig{})
	dss := []object.DatasetID{1, 2, 3}
	mf := mkMergeFile(m, dev, dss...)
	const versions = 256
	done := make(chan struct{})
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				f := m.file(mf.combo)
				for cell := range f.cells {
					for _, ds := range dss {
						if _, ok := f.entries[scanKey{ds: ds, cell: cell}]; !ok {
							t.Errorf("a routable version lacks dataset %d's segment of %v", ds, cell)
							return
						}
					}
				}
			}
		}()
	}
	cur := mf
	for i := range versions {
		cell := octree.Key{Level: 3, X: uint32(i % 8), Y: uint32(i / 8 % 8), Z: uint32(i / 64)}
		st := &stagedMerge{key: mf.combo, mf: cur, entries: map[scanKey]segment{}, order: []octree.Key{cell}}
		for _, ds := range dss {
			st.entries[scanKey{ds: ds, cell: cell}] = segment{count: 1}
		}
		if m.publish(st, true) != 1 {
			t.Fatalf("version %d was not published", i)
		}
		cur = m.file(mf.combo)
	}
	close(done)
	wg.Wait()
	if cur.NumEntries() != versions {
		t.Fatalf("last version holds %d entries, want %d", cur.NumEntries(), versions)
	}
}
