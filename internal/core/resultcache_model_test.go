package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spaceodyssey/internal/geom"
	"spaceodyssey/internal/object"
	"spaceodyssey/internal/octree"
)

// eagerCache is the result cache's specification, written the slow way:
// entries in a slice, every key current at all times, the victim found by a
// full scan for min (heat, seq), the drops by a full scan. The lazy
// heap and the shared-lock hit of resultCache must be indistinguishable
// from it on a serial run. An entry's content is one
// value, objects and child directory together, as the cache must keep it.
type eagerCache struct {
	bounds geom.Box

	capacity, objects, seq int64
	entries                []*eagerEntry

	hits, misses, evictions, invalidations, regrouped int64
	evicted                                           []scanKey
}

type eagerEntry struct {
	key     scanKey
	content cellContent
	heat    int64
	seq     int64
}

func (m *eagerCache) find(key scanKey) int {
	return slices.IndexFunc(m.entries, func(e *eagerEntry) bool { return e.key == key })
}

func (m *eagerCache) remove(i int) {
	m.objects -= int64(len(m.entries[i].content.objs))
	m.entries = slices.Delete(m.entries, i, i+1)
}

func (m *eagerCache) lookup(key scanKey) (cellContent, bool) {
	if i := m.find(key); i >= 0 {
		m.entries[i].heat++
		m.hits++
		return m.entries[i].content, true
	}
	m.misses++
	return cellContent{}, false
}

// insert keeps a read that began at epoch at only while at is the current
// epoch.
func (m *eagerCache) insert(key scanKey, at, current int64, content cellContent) {
	n := int64(len(content.objs))
	if at != current || n > m.capacity {
		return
	}
	e := &eagerEntry{key: key, content: content, heat: 1}
	if i := m.find(key); i >= 0 {
		e.heat = m.entries[i].heat + 1
		m.remove(i)
	}
	for m.objects+n > m.capacity && len(m.entries) > 0 {
		coldest := 0
		for i, c := range m.entries {
			if v := m.entries[coldest]; c.heat < v.heat || c.heat == v.heat && c.seq < v.seq {
				coldest = i
			}
		}
		m.evicted = append(m.evicted, m.entries[coldest].key)
		m.remove(coldest)
		m.evictions++
	}
	m.seq++
	e.seq = m.seq
	m.entries = append(m.entries, e)
	m.objects += n
}

func (m *eagerCache) invalidate() {
	if len(m.entries) > 0 {
		m.invalidations++
	}
	m.entries, m.objects = nil, 0
}

// groupedAs is a merge segment's layout, written the slow way: objs sorted
// stably by the cell of the segment's grid holding their centres — the k³
// children of cell, or its (2k)³ grid from (2k)³ objects — and the grid's
// cell bounds.
func groupedAs(bounds geom.Box, cell octree.Key, fanout int, objs []object.Object) ([]object.Object, []int32) {
	grid := fanout
	if len(objs) >= 8*fanout*fanout*fanout {
		grid = 2 * fanout
	}
	cells := EntryBox(bounds, cell, fanout).Grid(grid)
	sorted := slices.Clone(objs)
	slices.SortStableFunc(sorted, func(a, b object.Object) int {
		return cells.Index(a.Center) - cells.Index(b.Center)
	})
	dir := make([]int32, grid*grid*grid+1)
	for _, o := range sorted {
		dir[cells.Index(o.Center)+1]++
	}
	for i := 1; i < len(dir); i++ {
		dir[i] += dir[i-1]
	}
	return sorted, dir
}

// regroup is a merge publish: an entry held in file order whose key a
// segment with a directory names takes its objects as the segment lays them
// out, with the segment's directory, when its count and that layout's
// directory are the segment's, and is removed otherwise. It counts an
// invalidation if it removed any.
func (m *eagerCache) regroup(fanout int, segs map[scanKey]segment) {
	n := len(m.entries)
	for key, seg := range segs {
		i := m.find(key)
		if i < 0 || seg.children == nil || m.entries[i].content.children != nil {
			continue
		}
		objs, dir := groupedAs(m.bounds, key.cell, fanout, m.entries[i].content.objs)
		if len(objs) == seg.count && slices.Equal(dir, seg.children) {
			m.entries[i].content = cellContent{objs: objs, children: seg.children}
			m.regrouped++
		} else {
			m.remove(i)
		}
	}
	if len(m.entries) < n {
		m.invalidations++
	}
}

// drop removes the entries drop selects, and counts an invalidation if there
// were any.
func (m *eagerCache) drop(drop func(scanKey) bool) {
	n := len(m.entries)
	for i := len(m.entries) - 1; i >= 0; i-- {
		if drop(m.entries[i].key) {
			m.remove(i)
		}
	}
	if len(m.entries) < n {
		m.invalidations++
	}
}

// TestResultCacheLazyEvictionIsEager drives the cache and the eager model
// with one seeded sequence of inserts, lookups, maintenance peeks, epoch
// advances, refinement drops (split cells and their ancestors), merge
// regroups, flushes, and inserts of reads that raced an epoch advance, over
// two datasets at a capacity that forces evictions, and requires the same
// answers — the same objects in the same order with the
// same child directory, which an insert makes its own or leaves off — the
// same cached set after every operation (so the same victims, in the same
// order, and the same survivors of every drop), and the same ledger. Every
// insert passes the cell's partition, and after every operation each held
// entry is what its partition points at and every other partition points at
// nothing; half the cell reads look up through the partition, which must
// answer as the map does. A regroup swaps in a new entry that keeps the old
// one's heat and seq.
func TestResultCacheLazyEvictionIsEager(t *testing.T) {
	const fanout = 2
	bounds := geom.UnitBox()
	var cells []octree.Key
	for level := uint32(1); level <= 3; level++ {
		side := uint32(1) << level
		for x := uint32(0); x < side; x++ {
			for y := uint32(0); y < side; y++ {
				for z := uint32(0); z < side; z++ {
					cells = append(cells, testKeyAt(level, x, y, z))
				}
			}
		}
	}
	content := make([]object.Object, 16) // centres spread over the volume: a regroup reorders them
	cr := rand.New(rand.NewSource(3))
	for i := range content {
		content[i] = object.Object{ID: uint64(i), Dataset: 1, Center: geom.V(cr.Float64(), cr.Float64(), cr.Float64())}
	}
	// The heat does not decay: the cache ranks its entries by (heat, seq).
	t.Run("halfLife=0", func(t *testing.T) {
		var epoch atomic.Int64
		c := newResultCache(bounds, 300, &epoch)
		m := &eagerCache{bounds: bounds, capacity: 300}
		r := rand.New(rand.NewSource(41))
		cached := func() []scanKey {
			keys := make([]scanKey, 0, len(c.entries))
			for k := range c.entries {
				keys = append(keys, k)
			}
			return keys
		}
		byKey := func(a, b scanKey) int {
			if a.ds != b.ds {
				return int(a.ds) - int(b.ds)
			}
			return compareKeys(a.cell, b.cell)
		}
		// One partition per cell. A partition points at the entry the cache
		// holds its key in, and at nothing when it holds none.
		parts := map[scanKey]*octree.Partition{}
		checkPointers := func(op int) {
			for key, p := range parts {
				it := c.entries[key]
				switch {
				case it == nil && p.Cached() != nil:
					t.Fatalf("op %d: %v is not held, its partition points at an entry", op, key)
				case it != nil && p.Cached() != &it.CacheEntry:
					t.Fatalf("op %d: %v is held, its partition points at %p, not at its entry", op, key, p.Cached())
				}
			}
		}
		// A skewed choice of cell, so that some entries are hot.
		pick := func() scanKey {
			u := r.Float64()
			return scanKey{ds: object.DatasetID(1 + r.Intn(2)), cell: cells[int(float64(len(cells))*u*u*u)]}
		}
		for i := 0; i < 40000; i++ {
			key := pick()
			var got, want cellContent
			var gotOK, wantOK bool
			p := r.Float64()
			switch {
			case p < 0.75: // a cell read: what misses is inserted below
				var part *octree.Partition // half through the map, half through the partition
				if r.Intn(2) == 0 {
					part = parts[key]
				}
				got, gotOK = c.Lookup(key.ds, key.cell, part)
				want, wantOK = m.lookup(key)
			case p < 0.95: // a maintenance read: it books nothing and heats nothing
				got, gotOK = c.Peek(key.ds, key.cell)
				if e := m.find(key); e >= 0 {
					want, wantOK = m.entries[e].content, true
				}
			case p < 0.96: // a publish that drops nothing: a build, an eviction
				epoch.Add(1)
			case p < 0.963: // a refinement: two split cells of one dataset, cached or not
				epoch.Add(1)
				split := []octree.Key{key.cell, pick().cell}
				c.DropKeys(splitCells(key.ds, fanout, split))
				m.drop(func(k scanKey) bool {
					return k.ds == key.ds && slices.ContainsFunc(split, func(s octree.Key) bool { return k.cell.AncestorOf(s, fanout) })
				})
			case p < 0.968: // a merge: a few keys, cached or not, one-page, matching or not
				epoch.Add(1)
				segs := map[scanKey]segment{}
				for _, k := range []scanKey{key, pick(), pick(), pick()} {
					n := r.Intn(len(content))
					if e := m.find(k); e >= 0 {
						n = len(m.entries[e].content.objs)
					}
					_, dir := groupedAs(bounds, k.cell, fanout, content[:n])
					seg := segment{count: n, children: dir}
					switch r.Intn(6) {
					case 0: // one page: no directory
						seg.children = nil
					case 1: // a count the entry does not hold
						seg.count++
					case 2: // a directory the entry's objects do not give
						seg.children = slices.Clone(dir)
						seg.children[len(dir)/2]++
					}
					segs[k] = seg
				}
				type was struct {
					it        *cachedScan
					heat, seq int64
				}
				before := map[scanKey]was{}
				for k := range segs {
					if it := c.entries[k]; it != nil {
						before[k] = was{it, it.Heat.Load(), it.seq}
					}
				}
				c.Regroup(fanout, segs)
				m.regroup(fanout, segs)
				for k, b := range before {
					it := c.entries[k]
					if it == nil || it == b.it {
						continue // removed, or left as it was
					}
					if it.Heat.Load() != b.heat || it.seq != b.seq || it.Children == nil {
						t.Fatalf("op %d: %v regrouped to heat %d seq %d directory %v; it had heat %d seq %d",
							i, k, it.Heat.Load(), it.seq, it.Children, b.heat, b.seq)
					}
				}
			case p < 0.9685:
				c.Invalidate()
				m.invalidate()
			}
			if p < 0.75 && !gotOK || p >= 0.95 {
				at := epoch.Load()
				if r.Intn(20) == 0 {
					at-- // a read that raced a publish: not kept
				}
				in := cellContent{objs: content[:r.Intn(len(content))]}
				if r.Intn(3) > 0 {
					in.children = []int32{int32(i), int32(len(in.objs))} // this insert's own directory
				}
				before, mark := cached(), len(m.evicted)
				if parts[key] == nil {
					parts[key] = new(octree.Partition)
				}
				c.Insert(key.ds, key.cell, parts[key], at, in)
				m.insert(key, at, epoch.Load(), in)
				// What this insert pushed out of the cache, against what it
				// pushed out of the model: insert by insert, so the victims
				// come in the same order (as sets within one insert, where
				// only the model shows an order).
				evicted := slices.DeleteFunc(before, func(k scanKey) bool { return k == key || c.entries[k] != nil })
				wantEvicted := slices.Clone(m.evicted[mark:])
				slices.SortFunc(evicted, byKey)
				slices.SortFunc(wantEvicted, byKey)
				if !slices.Equal(evicted, wantEvicted) {
					t.Fatalf("op %d, insert of %v: the cache evicted %v, the model %v", i, key, evicted, wantEvicted)
				}
			}
			if gotOK != wantOK || !slices.Equal(got.objs, want.objs) || !slices.Equal(got.children, want.children) {
				t.Fatalf("op %d on %v: the cache answered %d objects with directory %v (%v), the model %d with %v (%v)",
					i, key, len(got.objs), got.children, gotOK, len(want.objs), want.children, wantOK)
			}
			if len(c.entries) != len(m.entries) || c.objects != m.objects {
				t.Fatalf("op %d: the cache holds %d entries / %d objects, the model %d / %d", i, len(c.entries), c.objects, len(m.entries), m.objects)
			}
			checkPointers(i)
		}
		for _, e := range m.entries {
			it := c.entries[e.key]
			if it == nil || it.Heat.Load() != e.heat || it.seq != e.seq {
				t.Fatalf("entry %v: cache %+v, model heat %d seq %d", e.key, it, e.heat, e.seq)
			}
		}
		st := c.Stats()
		if st.Evictions != m.evictions || st.Hits != m.hits || st.Misses != m.misses ||
			st.Capacity != m.capacity || st.Invalidations != m.invalidations {
			t.Fatalf("ledger: cache %+v; model evictions %d hits %d misses %d capacity %d invalidations %d",
				st, m.evictions, m.hits, m.misses, m.capacity, m.invalidations)
		}
		if st.Evictions < 1000 || st.Hits < 1000 || st.Invalidations < 100 || m.regrouped < 20 {
			t.Fatalf("the sequence exercised too little: %+v, %d entries regrouped", st, m.regrouped)
		}
	})
}

// TestResultCacheRunTunesOnCadence: a run of hits is booked once, after the
// run, and books exactly its hits — never the read that ended it, which is
// the caller's to Lookup. The tape drives LookupRun beside the per-Lookup
// model over more cells than the budget holds, so runs end at evicted cells;
// the hits and misses must match the model's at every step, and the hits
// must be the hits served.
func TestResultCacheRunTunesOnCadence(t *testing.T) {
	var epoch atomic.Int64
	epoch.Store(1)
	c := newResultCache(geom.UnitBox(), 300, &epoch)
	m := &eagerCache{bounds: geom.UnitBox(), capacity: 300}
	cells := make([]octree.Key, 32) // 16 objects each: twice what 300 holds
	for i := range cells {
		cells[i] = testKeyAt(3, uint32(i%8), uint32(i/8), 0)
	}
	content := cellContent{objs: make([]object.Object, 16)}
	var served int64
	check := func(step string) {
		t.Helper()
		if st := c.Stats(); st.Hits != m.hits || st.Misses != m.misses || st.Hits != served {
			t.Fatalf("%s: cache %+v; model hits %d misses %d; %d hits served", step, st, m.hits, m.misses, served)
		}
	}
	// read is one cell read as readCell issues it: a lookup, and an insert of
	// what missed.
	read := func(cell octree.Key) {
		key := scanKey{ds: 1, cell: cell}
		_, ok := c.Lookup(1, cell, nil)
		if _, want := m.lookup(key); ok != want {
			t.Fatalf("lookup of %v: the cache hit %v, the model %v", cell, ok, want)
		}
		if ok {
			served++
			return
		}
		c.Insert(1, cell, nil, epoch.Load(), content)
		m.insert(key, epoch.Load(), epoch.Load(), content)
	}
	// run is readMerged's run of hits: the model books them one by one.
	run := func(cells ...octree.Key) {
		reads := make([]mergeRead, len(cells))
		for i, cell := range cells {
			reads[i] = mergeRead{entry: cell, ds: 1}
		}
		hits := c.LookupRun(nil, reads)
		for _, cell := range cells[:len(hits)] {
			if _, ok := m.lookup(scanKey{ds: 1, cell: cell}); !ok {
				t.Fatalf("the cache hit %v, the model missed it", cell)
			}
		}
		if len(hits) < len(cells) && m.find(scanKey{ds: 1, cell: cells[len(hits)]}) >= 0 {
			t.Fatalf("the run ended at %v, which the model holds", cells[len(hits)])
		}
		served += int64(len(hits))
	}

	for _, cell := range cells { // fill past the budget: the first cells are evicted
		read(cell)
	}
	check("filled")
	hot := cells[len(cells)-1]
	long := make([]octree.Key, 20)
	for i := range long {
		long[i] = hot
	}
	run(long...)
	check("after a run of hits")
	run(cells[0]) // a run ended by its first read books nothing
	check("after an empty run")
	run(cells[30], cells[31], cells[0], cells[31]) // a run ended by a miss books only its hits
	check("after a run ended by a miss")
	read(cells[0])
	check("after the read that ended it")
	if served != 22 || m.misses != int64(len(cells))+1 {
		t.Fatalf("the tape exercised too little: %d hits served, %d misses", served, m.misses)
	}
}

// TestResultCacheStorm hammers the cache from every side at once — single
// lookups, lock-free lookups through the cells' partitions, run lookups,
// inserts of reads that may have raced a publish, and
// publishes that advance the epoch and then drop a cell a refinement split
// with its ancestors, regroup a few keys for a merge, flush everything or
// drop nothing — and holds the things sharing the lock on a hit, dropping by
// target and swapping content in place could break: the ledger still counts
// every lookup exactly once (a run books its hits, never the read that ended
// it), no lookup returns content whose read began before the epoch advance
// of the last drop that covered its key and had finished when the lookup
// began, and every content returned is one read's, whole: its objects in
// file order, alone or with the read's own directory, or grouped by the
// merge with the merge's directory — never one entry's objects with another
// entry's directory.
func TestResultCacheStorm(t *testing.T) {
	const fanout = 2
	bounds := geom.UnitBox()
	var epoch atomic.Int64
	epoch.Store(1)
	c := newResultCache(bounds, 32, &epoch) // the 128 cells below hold 512 objects: evictions never stop

	// A run of reads over the level-2 cells of two datasets, in a fixed order.
	var run []mergeRead
	for ds := object.DatasetID(1); ds <= 2; ds++ {
		for x := uint32(0); x < 4; x++ {
			for y := uint32(0); y < 4; y++ {
				for z := uint32(0); z < 4; z++ {
					run = append(run, mergeRead{entry: testKeyAt(2, x, y, z), ds: ds, start: int64(len(run))})
				}
			}
		}
	}
	// A cell's four objects in file order lie on its diagonal from the far
	// corner, so a merge's grouping reverses their pairs; grouped and dir
	// are that grouping, which a merge publishes for the cell.
	type layout struct {
		file, grouped []object.Object
		dir           []int32
	}
	layouts := make([]layout, len(run))
	parts := make([]octree.Partition, len(run)) // each cell's, which every insert passes
	index := map[scanKey]int{}
	for i, rd := range run {
		box := rd.entry.Box(bounds, fanout)
		l := &layouts[i]
		for _, f := range []float64{0.875, 0.625, 0.375, 0.125} {
			l.file = append(l.file, object.Object{Dataset: rd.ds, Center: box.Min.Add(box.Size().Mul(f))})
		}
		l.grouped, l.dir = groupedAs(bounds, rd.entry, fanout, l.file)
		index[scanKey{ds: rd.ds, cell: rd.entry}] = i
	}
	// floors[i] is the epoch the last finished drop covering run[i] advanced
	// to: no lookup that began after the drop may be answered by a read that
	// began before that epoch.
	floors := make([]atomic.Int64, len(run))
	// An entry's content names the epoch its read began at in its objects,
	// and in its own directory when the read carries one (every other read).
	insert := func(i int, at int64) {
		objs := slices.Clone(layouts[i].file)
		for j := range objs {
			objs[j].ID = uint64(at)
		}
		var dir []int32
		if at%2 == 0 {
			dir = []int32{int32(at)}
		}
		c.Insert(run[i].ds, run[i].entry, &parts[i], at, cellContent{objs: objs, children: dir})
	}
	// stale reports content of run[i] read before floor or after hi (the
	// epoch after the lookup), or that is not one read's, whole.
	stale := func(i int, got cellContent, floor, hi int64) bool {
		id := got.objs[0].ID
		want := layouts[i].file
		switch len(got.children) {
		case 0:
		case 1:
			if got.children[0] != int32(id) {
				return true
			}
		default:
			if !slices.Equal(got.children, layouts[i].dir) {
				return true
			}
			want = layouts[i].grouped
		}
		for j := range got.objs {
			if got.objs[j].ID != id || got.objs[j].Center != want[j].Center {
				return true
			}
		}
		return id < uint64(floor) || id > uint64(hi)
	}
	var lookups, partHits atomic.Int64
	var regrouped atomic.Int64
	errc := make(chan error, 16)
	fail := func(format string, args ...any) {
		select {
		case errc <- fmt.Errorf(format, args...):
		default:
		}
	}
	var wg sync.WaitGroup
	worker := func(seed int64, body func(r *rand.Rand)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 3000; i++ {
				body(r)
			}
		}()
	}
	// Publishes, for as long as the lookups run: the epoch advances, then
	// what the publish changed is handed to the cache, as publishRefined and
	// regroupMerged do — and the floors of the dropped keys rise once the
	// drop is done. A regroup drops nothing: what it swaps in is the same
	// read, grouped.
	stop, published := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(published)
		r := rand.New(rand.NewSource(20))
		for {
			select {
			case <-stop:
				return
			case <-time.After(50 * time.Microsecond):
			}
			e := epoch.Add(1)
			covered := func(int) bool { return false } // a build or an eviction drops nothing
			switch op := r.Intn(8); {
			case op == 1:
				c.Invalidate()
				covered = func(int) bool { return true }
			case op < 4: // a refinement split one of the cells, or a child of one
				rd := run[r.Intn(len(run))]
				split := rd.entry
				if r.Intn(2) == 0 {
					split = split.Child(fanout, r.Intn(fanout), r.Intn(fanout), r.Intn(fanout))
				}
				c.DropKeys(splitCells(rd.ds, fanout, []octree.Key{split}))
				covered = func(i int) bool { return run[i].ds == rd.ds && run[i].entry.AncestorOf(split, fanout) }
			case op < 8:
				segs := map[scanKey]segment{}
				for range 4 {
					rd := run[r.Intn(len(run))]
					key := scanKey{ds: rd.ds, cell: rd.entry}
					segs[key] = segment{count: 4, children: layouts[index[key]].dir}
				}
				c.Regroup(fanout, segs)
				for key := range segs {
					if got, ok := c.Peek(key.ds, key.cell); ok && len(got.children) > 1 {
						regrouped.Add(1)
					}
				}
			}
			for i := range floors {
				if covered(i) {
					floors[i].Store(e)
				}
			}
		}
	}()
	// lookup is one cell read as readCell issues it: the epoch loaded first,
	// then the lookup — through the map, or with no lock through the cell's
	// partition — and an insert of what missed.
	lookup := func(i int, part *octree.Partition) {
		at, floor := epoch.Load(), floors[i].Load()
		got, ok := c.Lookup(run[i].ds, run[i].entry, part)
		lookups.Add(1)
		if ok && part != nil {
			partHits.Add(1)
		}
		if !ok {
			insert(i, at)
		} else if hi := epoch.Load(); stale(i, got, floor, hi) {
			fail("Lookup of %v past the drop to epoch %d answered with %v, directory %v", run[i], floor, got.objs, got.children)
		}
	}
	for g := int64(0); g < 2; g++ {
		worker(g, func(r *rand.Rand) { // single lookups
			lookup(r.Intn(len(run)), nil)
		})
		worker(20+g, func(r *rand.Rand) { // lock-free lookups through the partitions
			i := r.Intn(len(run))
			lookup(i, &parts[i])
		})
		worker(10+g, func(r *rand.Rand) { // run lookups, as readMerged issues them, 16 reads at most
			var floor [16]int64
			for i := r.Intn(len(run)); i < len(run); {
				reads := run[i:min(i+len(floor), len(run))]
				for j := range reads {
					floor[j] = floors[i+j].Load()
				}
				hits := c.LookupRun(nil, reads)
				hi := epoch.Load()
				lookups.Add(int64(len(hits)))
				for j, got := range hits {
					if stale(i+j, got, floor[j], hi) {
						fail("LookupRun of %v past the drop to epoch %d answered with %v, directory %v", reads[j], floor[j], got.objs, got.children)
					}
				}
				if i += len(hits); len(hits) < len(reads) {
					lookup(i, nil)
					i++
				}
			}
		})
	}
	wg.Wait()
	close(stop)
	<-published
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	st := c.Stats()
	if st.Hits+st.Misses != lookups.Load() {
		t.Fatalf("%d hits + %d misses, %d lookups issued", st.Hits, st.Misses, lookups.Load())
	}
	if st.Hits == 0 || st.Misses == 0 || st.Evictions == 0 || st.Invalidations == 0 || regrouped.Load() == 0 || partHits.Load() == 0 {
		t.Fatalf("the storm exercised too little: %+v, %d regrouped entries found, %d hits through partitions", st, regrouped.Load(), partHits.Load())
	}
}
