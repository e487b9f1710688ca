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
// full scan for min (score, heat, seq), the drops by a full scan. The lazy
// heap, the shared-lock hit and the atomic tuner cadence of resultCache must
// be indistinguishable from it on a serial run. An entry's content is one
// value, objects and child directory together, as the cache must keep it.
type eagerCache struct {
	bounds   geom.Box
	halfLife float64
	tick     *int64

	capacity, objects, seq int64
	entries                []*eagerEntry

	adaptive                                         bool
	minCap, maxCap                                   int64
	ghost                                            map[scanKey]bool
	ghostRing                                        []scanKey
	ghostHitsWin, evictionsWin, peakObjects, sinceOp int64

	hits, misses, evictions, ghostHits, grows, shrinks, invalidations int64
	evicted                                                           []scanKey
}

type eagerEntry struct {
	key     scanKey
	content cellContent
	heat    int64
	score   float64
	seq     int64
}

func (m *eagerCache) find(key scanKey) int {
	return slices.IndexFunc(m.entries, func(e *eagerEntry) bool { return e.key == key })
}

func (m *eagerCache) touch(e *eagerEntry) {
	e.heat++
	if m.halfLife > 0 {
		e.score = bumpScore(e.score, *m.tick, m.halfLife)
	}
}

func (m *eagerCache) remove(i int) {
	m.objects -= int64(len(m.entries[i].content.objs))
	m.entries = slices.Delete(m.entries, i, i+1)
}

// enableAdaptive is the tuner's range rule: [start/16, 64 x start], the
// floor at least 1,024 objects, and the start itself inside the range.
func (m *eagerCache) enableAdaptive() {
	m.adaptive, m.ghost = true, map[scanKey]bool{}
	m.minCap = max(m.capacity/16, 1024)
	m.maxCap = max(64*m.capacity, m.minCap)
	m.capacity = min(max(m.capacity, m.minCap), m.maxCap)
}

func (m *eagerCache) op() {
	if !m.adaptive {
		return
	}
	if m.sinceOp++; m.sinceOp >= tuneEvery {
		m.tune()
	}
}

func (m *eagerCache) tune() {
	m.peakObjects = max(m.peakObjects, m.objects)
	switch {
	case m.ghostHitsWin >= growAfter && m.capacity < m.maxCap:
		m.capacity = min(m.capacity*2, m.maxCap)
		m.grows++
	case m.evictionsWin == 0 && m.ghostHitsWin == 0 && m.peakObjects*4 <= m.capacity && m.capacity > m.minCap:
		m.capacity = max(m.capacity/2, m.minCap)
		m.shrinks++
	}
	m.ghostHitsWin, m.evictionsWin, m.peakObjects, m.sinceOp = 0, 0, m.objects, 0
}

func (m *eagerCache) lookup(key scanKey) (cellContent, bool) {
	defer m.op()
	if i := m.find(key); i >= 0 {
		m.touch(m.entries[i])
		m.hits++
		return m.entries[i].content, true
	}
	if m.adaptive && m.ghost[key] {
		m.ghostHitsWin++
		m.ghostHits++
	}
	m.misses++
	return cellContent{}, false
}

// contained probes the cached levels deepest first, as the cache documents.
func (m *eagerCache) contained(ds object.DatasetID, fanout int, ext geom.Box) (cellContent, octree.Key, bool) {
	for level := 32; level >= 0; level-- {
		cell, ok := octree.CellAt(m.bounds, fanout, uint32(level), ext.Min)
		if !ok {
			continue
		}
		if i := m.find(scanKey{ds: ds, cell: cell}); i >= 0 && cell.Box(m.bounds, fanout).Contains(ext) {
			m.touch(m.entries[i])
			return m.entries[i].content, cell, true
		}
	}
	return cellContent{}, octree.Key{}, false
}

// insert keeps a read that began at epoch at only while at is the current
// epoch.
func (m *eagerCache) insert(key scanKey, at, current int64, content cellContent) {
	if at != current {
		return
	}
	n := int64(len(content.objs))
	if n > m.capacity {
		if !m.adaptive || n > m.maxCap {
			return
		}
		for m.capacity < n && m.capacity < m.maxCap {
			m.capacity *= 2
		}
		m.capacity = min(m.capacity, m.maxCap)
		m.grows++
	}
	e := &eagerEntry{key: key, content: content, heat: 1}
	if m.halfLife > 0 {
		e.score = heatScore(1, *m.tick, m.halfLife)
	}
	if i := m.find(key); i >= 0 {
		old := m.entries[i]
		e.heat = old.heat + 1
		if m.halfLife > 0 {
			e.score = bumpScore(old.score, *m.tick, m.halfLife)
		}
		m.remove(i)
	}
	for m.objects+n > m.capacity && len(m.entries) > 0 {
		coldest := 0
		for i, c := range m.entries {
			v := m.entries[coldest]
			if c.score != v.score {
				if c.score < v.score {
					coldest = i
				}
			} else if c.heat != v.heat {
				if c.heat < v.heat {
					coldest = i
				}
			} else if c.seq < v.seq {
				coldest = i
			}
		}
		victim := m.entries[coldest].key
		if m.adaptive && !m.ghost[victim] {
			if len(m.ghostRing) >= ghostCap {
				delete(m.ghost, m.ghostRing[0])
				m.ghostRing = m.ghostRing[1:]
			}
			m.ghost[victim] = true
			m.ghostRing = append(m.ghostRing, victim)
		}
		m.evicted = append(m.evicted, victim)
		m.remove(coldest)
		m.evictions++
		m.evictionsWin++
	}
	m.seq++
	e.seq = m.seq
	m.entries = append(m.entries, e)
	m.objects += n
	m.peakObjects = max(m.peakObjects, m.objects)
	delete(m.ghost, key)
	m.op()
}

func (m *eagerCache) invalidate() {
	if m.adaptive {
		m.tune()
		m.ghost, m.ghostRing = map[scanKey]bool{}, nil
	}
	if len(m.entries) > 0 {
		m.invalidations++
	}
	m.entries, m.objects = nil, 0
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
// with one seeded sequence of inserts, lookups, containment probes, clock
// advances, epoch advances, dataset and key drops, flushes, and inserts of
// reads that raced an epoch advance, over two datasets at a capacity that
// forces evictions — with and without heat decay, with and without the
// capacity tuner — and requires the same answers — the same objects with the
// same child directory, which every insert makes its own — the same cached
// set after every operation (so the same victims, in the same order, and the
// same survivors of every drop), and the same ledger. Every insert passes
// the cell's partition, and after every operation a partition is marked
// exactly when the cache holds its key.
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
	content := make([]object.Object, 16)
	for _, halfLife := range []float64{0, 16} {
		for _, adaptive := range []bool{false, true} {
			t.Run(fmt.Sprintf("halfLife=%v/adaptive=%v", halfLife, adaptive), func(t *testing.T) {
				var tick int64
				var epoch atomic.Int64
				c := newResultCache(bounds, 300, &epoch)
				c.halfLife, c.tick = halfLife, func() int64 { return tick }
				m := &eagerCache{bounds: bounds, halfLife: halfLife, tick: &tick, capacity: 300}
				if adaptive {
					c.enableAdaptive()
					m.enableAdaptive()
					// The budget floats, below what the cells hold: the tuner moves
					// both ways and evictions never stop.
					c.minCap, c.maxCap, c.capacity = 100, 1200, 300
					m.minCap, m.maxCap, m.capacity = 100, 1200, 300
				}
				r := rand.New(rand.NewSource(int64(halfLife)*2 + 41))
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
				// One partition per cell. A partition is marked exactly when the
				// cache holds its key: after an operation, every entry's partition
				// is marked, and of the partitions that could be — those of the
				// entries before it and the one it inserted, the only partition
				// handed to the cache since — no other is.
				parts := map[scanKey]*octree.Partition{}
				var held, next []*octree.Partition // the entries' partitions before the operation, and after
				var inserted *octree.Partition     // by the operation
				checkMarks := func(op int) {
					marked := 0
					for _, p := range held {
						if p.Marked() {
							marked++
						}
					}
					if inserted != nil && inserted.Marked() && !slices.Contains(held, inserted) {
						marked++
					}
					next = next[:0]
					for _, it := range c.cold {
						if !it.part.Marked() {
							t.Fatalf("op %d: %v is held, its partition unmarked", op, it.key)
						}
						next = append(next, it.part)
					}
					if marked != len(next) {
						t.Fatalf("op %d: %d partitions marked, %d cells held", op, marked, len(next))
					}
					held, next, inserted = next, held, nil
				}
				// A skewed choice of cell, so that some entries are hot.
				pick := func() scanKey {
					u := r.Float64()
					return scanKey{ds: object.DatasetID(1 + r.Intn(2)), cell: cells[int(float64(len(cells))*u*u*u)]}
				}
				for i := 0; i < 40000; i++ {
					key := pick()
					var got, want cellContent
					var gotAt, wantAt octree.Key
					var gotOK, wantOK bool
					p := r.Float64()
					switch {
					case p < 0.75: // a cell read: what misses is inserted below
						got, gotOK = c.Lookup(key.ds, key.cell)
						want, wantOK = m.lookup(key)
					case p < 0.85:
						ext := geom.Cube(geom.V(r.Float64(), r.Float64(), r.Float64()), 0.05*r.Float64())
						got, gotAt, gotOK = c.AnswerContained(key.ds, fanout, ext)
						want, wantAt, wantOK = m.contained(key.ds, fanout, ext)
					case p < 0.95:
						tick += int64(r.Intn(12))
					case p < 0.96: // a publish that drops nothing: a build, an eviction
						epoch.Add(1)
					case p < 0.961: // a refinement
						epoch.Add(1)
						c.DropDataset(key.ds)
						m.drop(func(k scanKey) bool { return k.ds == key.ds })
					case p < 0.966: // a merge: a few keys, cached or not
						epoch.Add(1)
						keys := []scanKey{key, pick(), pick()}
						c.DropKeys(slices.Values(keys))
						m.drop(func(k scanKey) bool { return slices.Contains(keys, k) })
					case p < 0.9665:
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
						inserted = parts[key]
						c.Insert(key.ds, key.cell, parts[key], at, key.cell.Box(bounds, fanout), in)
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
					if gotOK != wantOK || len(got.objs) != len(want.objs) || !slices.Equal(got.children, want.children) || gotAt != wantAt {
						t.Fatalf("op %d on %v: the cache answered %d objects with directory %v at %v (%v), the model %d with %v at %v (%v)",
							i, key, len(got.objs), got.children, gotAt, gotOK, len(want.objs), want.children, wantAt, wantOK)
					}
					if len(c.entries) != len(m.entries) || c.objects != m.objects {
						t.Fatalf("op %d: the cache holds %d entries / %d objects, the model %d / %d", i, len(c.entries), c.objects, len(m.entries), m.objects)
					}
					checkMarks(i)
				}
				for _, e := range m.entries {
					it := c.entries[e.key]
					if it == nil || it.heat.Load() != e.heat || it.seq != e.seq {
						t.Fatalf("entry %v: cache %+v, model heat %d seq %d", e.key, it, e.heat, e.seq)
					}
				}
				st := c.Stats()
				if st.Evictions != m.evictions || st.Hits != m.hits || st.Misses != m.misses ||
					st.GhostHits != m.ghostHits || st.Capacity != m.capacity ||
					st.CapacityGrows != m.grows || st.CapacityShrinks != m.shrinks ||
					st.Invalidations != m.invalidations {
					t.Fatalf("ledger: cache %+v; model evictions %d hits %d misses %d ghost hits %d capacity %d grows %d shrinks %d invalidations %d",
						st, m.evictions, m.hits, m.misses, m.ghostHits, m.capacity, m.grows, m.shrinks, m.invalidations)
				}
				if st.Evictions < 1000 || st.Hits < 1000 || st.Invalidations < 100 || adaptive && st.CapacityGrows+st.CapacityShrinks == 0 {
					t.Fatalf("the sequence exercised too little: %+v", st)
				}
			})
		}
	}
}

// TestResultCacheRunTunesOnCadence: a run of hits is booked once, after the
// run, yet the tuner must decide what it would have with every hit booked on
// its own. The tape drives LookupRun beside the per-Lookup model: a run that
// crosses tuneEvery in its middle, with enough ghost hits in the window to
// grow the budget, and, after a flush, a run long enough to cross it
// three times over an idle budget, which shrinks it twice. The capacity, the
// tuner's moves, the ghost hits and the hits must match the model's at every
// step, and the hits must be the hits served.
func TestResultCacheRunTunesOnCadence(t *testing.T) {
	var tick int64
	var epoch atomic.Int64
	epoch.Store(1)
	c := newResultCache(geom.UnitBox(), 300, &epoch)
	c.halfLife, c.tick = 16, func() int64 { return tick }
	m := &eagerCache{bounds: geom.UnitBox(), halfLife: 16, tick: &tick, capacity: 300}
	c.enableAdaptive()
	m.enableAdaptive()
	c.minCap, c.maxCap, c.capacity = 100, 1200, 300
	m.minCap, m.maxCap, m.capacity = 100, 1200, 300
	cells := make([]octree.Key, 32) // 16 objects each: twice what 300 holds
	for i := range cells {
		cells[i] = testKeyAt(3, uint32(i%8), uint32(i/8), 0)
	}
	content := cellContent{objs: make([]object.Object, 16)}
	var served int64
	check := func(step string) {
		t.Helper()
		st := c.Stats()
		if st.Capacity != m.capacity || st.CapacityGrows != m.grows || st.CapacityShrinks != m.shrinks ||
			st.GhostHits != m.ghostHits || st.Hits != m.hits || st.Hits != served || c.sinceTune.Load() != m.sinceOp {
			t.Fatalf("%s: cache %+v, cadence %d; model capacity %d grows %d shrinks %d ghost hits %d hits %d, cadence %d; %d hits served",
				step, st, c.sinceTune.Load(), m.capacity, m.grows, m.shrinks, m.ghostHits, m.hits, m.sinceOp, served)
		}
	}
	// read is one cell read as readCell issues it: a lookup, and an insert of
	// what missed.
	read := func(cell octree.Key) {
		key := scanKey{ds: 1, cell: cell}
		_, ok := c.Lookup(1, cell)
		if _, want := m.lookup(key); ok != want {
			t.Fatalf("lookup of %v: the cache hit %v, the model %v", cell, ok, want)
		}
		if ok {
			served++
			return
		}
		c.Insert(1, cell, nil, epoch.Load(), geom.UnitBox(), content)
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

	for _, cell := range cells { // fill past the budget: evictions, ghosts
		read(cell)
	}
	for _, cell := range cells[:12] { // the first ones again: ghost hits
		read(cell)
	}
	check("filled")
	hot := cells[len(cells)-1]
	for m.sinceOp < tuneEvery-5 {
		read(hot)
	}
	check("before the run")
	if m.ghostHitsWin < growAfter {
		t.Fatalf("the window holds %d ghost hits, too few to grow the budget", m.ghostHitsWin)
	}
	long := make([]octree.Key, 20)
	for i := range long {
		long[i] = hot
	}
	run(long...) // the fifth hit is due to tune
	check("after a run crossing the cadence")
	if m.grows == 0 {
		t.Fatal("the tune inside the run did not grow the budget")
	}

	c.Invalidate()
	m.invalidate()
	read(cells[0])
	read(cells[1])
	check("after the flush")
	long = make([]octree.Key, 3*tuneEvery+10)
	for i := range long {
		long[i] = cells[i%2]
	}
	before := m.shrinks
	// Due to tune three times over two cells of a grown budget: the first tune
	// still sees the peak from before the flush, the next two shrink.
	run(long...)
	check("after a run crossing the cadence twice")
	if m.shrinks-before != 2 {
		t.Fatalf("the run's two tunes shrank the budget %d times, want 2", m.shrinks-before)
	}
	run(cells[0], cells[1], cells[2]) // a run ended by a miss books only its hits
	read(cells[2])
	check("after a run ended by a miss")
}

// TestAdaptiveCacheStartsInsideItsRange: enabling the tuner puts the capacity
// inside the range it will float in before the first operation — a start
// under the floor could otherwise only leave it by an oversized insert — and
// leaves a start already inside (the benchmark's 131,072) where it was.
func TestAdaptiveCacheStartsInsideItsRange(t *testing.T) {
	for _, tc := range []struct{ start, want, lo, hi int64 }{
		{16, 1024, 1024, 1024},
		{300, 1024, 1024, 19200},
		{1024, 1024, 1024, 65536},
		{131072, 131072, 8192, 8388608},
	} {
		c := newResultCache(geom.UnitBox(), tc.start, new(atomic.Int64))
		m := &eagerCache{capacity: tc.start}
		c.enableAdaptive()
		m.enableAdaptive()
		if c.capacity != m.capacity || c.minCap != m.minCap || c.maxCap != m.maxCap {
			t.Errorf("start %d: the cache is at %d in [%d, %d], the model at %d in [%d, %d]",
				tc.start, c.capacity, c.minCap, c.maxCap, m.capacity, m.minCap, m.maxCap)
		}
		if st := c.Stats(); st.Capacity != tc.want || c.minCap != tc.lo || c.maxCap != tc.hi {
			t.Errorf("start %d: capacity %d in [%d, %d], want %d in [%d, %d]",
				tc.start, st.Capacity, c.minCap, c.maxCap, tc.want, tc.lo, tc.hi)
		}
	}
}

// TestResultCacheStorm hammers the cache from every side at once — single
// lookups, run lookups, inserts of reads that may have raced a publish, and
// publishes that advance the epoch and then drop a dataset, a few keys,
// everything or nothing — and holds the things sharing the lock on a hit and
// dropping by target could break: the ledger still counts every lookup
// exactly once (a run books its hits, never the read that ended it), no
// lookup returns content whose read began before the epoch advance of the
// last drop that covered its key and had finished when the lookup began, and
// none returns another entry's child directory.
func TestResultCacheStorm(t *testing.T) {
	const fanout = 2
	bounds := geom.UnitBox()
	var epoch atomic.Int64
	epoch.Store(1)
	c := newResultCache(bounds, 32, &epoch)
	var tick atomic.Int64
	c.halfLife, c.tick = 8, tick.Load
	c.enableAdaptive()
	c.capacity, c.maxCap = 32, 256 // the 128 cells below hold 512 objects: the tuner grows the budget, evictions never stop

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
	// floors[i] is the epoch the last finished drop covering run[i] advanced
	// to: no lookup that began after the drop may be answered by a read that
	// began before that epoch.
	floors := make([]atomic.Int64, len(run))
	// An entry's content names the epoch its read began at, in its objects
	// and in its directory.
	insert := func(r mergeRead, at int64) {
		objs := make([]object.Object, 4)
		objs[0].ID = uint64(at)
		c.Insert(r.ds, r.entry, nil, at, r.entry.Box(bounds, fanout), cellContent{objs: objs, children: []int32{int32(at)}})
	}
	// stale reports content read before floor or after hi (the epoch after
	// the lookup), or whose objects and directory came from two entries.
	stale := func(got cellContent, floor, hi int64) bool {
		id := got.objs[0].ID
		return id < uint64(floor) || id > uint64(hi) || id != uint64(got.children[0])
	}
	var lookups atomic.Int64
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
	// what the publish changed is dropped, as publishRefined and dropMerged
	// do — and the floors of the dropped keys rise once the drop is done.
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
			case op < 4:
				ds := object.DatasetID(1 + r.Intn(2))
				c.DropDataset(ds)
				covered = func(i int) bool { return run[i].ds == ds }
			case op < 8:
				var keys []scanKey
				for range 4 {
					rd := run[r.Intn(len(run))]
					keys = append(keys, scanKey{ds: rd.ds, cell: rd.entry})
				}
				c.DropKeys(slices.Values(keys))
				covered = func(i int) bool { return slices.Contains(keys, scanKey{ds: run[i].ds, cell: run[i].entry}) }
			}
			for i := range floors {
				if covered(i) {
					floors[i].Store(e)
				}
			}
			c.AnswerContained(object.DatasetID(1+r.Intn(2)), fanout, geom.Cube(geom.V(r.Float64(), r.Float64(), r.Float64()), 0.01))
		}
	}()
	// lookup is one cell read as readCell issues it: the epoch loaded first,
	// then the lookup, and an insert of what missed.
	lookup := func(i int) {
		at, floor := epoch.Load(), floors[i].Load()
		got, ok := c.Lookup(run[i].ds, run[i].entry)
		lookups.Add(1)
		if !ok {
			insert(run[i], at)
		} else if hi := epoch.Load(); stale(got, floor, hi) {
			fail("Lookup of %v past the drop to epoch %d answered with the read of epoch %d (directory %v)", run[i], floor, got.objs[0].ID, got.children)
		}
	}
	for g := int64(0); g < 2; g++ {
		worker(g, func(r *rand.Rand) { // single lookups
			tick.Add(1)
			lookup(r.Intn(len(run)))
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
					if stale(got, floor[j], hi) {
						fail("LookupRun of %v past the drop to epoch %d answered with the read of epoch %d (directory %v)", reads[j], floor[j], got.objs[0].ID, got.children)
					}
				}
				if i += len(hits); len(hits) < len(reads) {
					lookup(i)
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
	if st.Hits == 0 || st.Misses == 0 || st.Evictions == 0 || st.Invalidations == 0 {
		t.Fatalf("the storm exercised too little: %+v", st)
	}
}
