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
// full scan for min (score, heat, seq). The lazy heap, the shared-lock hit
// and the atomic tuner cadence of resultCache must be indistinguishable from
// it on a serial run. An entry's content is one value, objects and child
// directory together, as the cache must keep it.
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

	hits, misses, evictions, ghostHits, grows, shrinks int64
	evicted                                            []scanKey
}

type eagerEntry struct {
	key     scanKey
	epoch   int64
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

func (m *eagerCache) lookup(key scanKey, epoch int64) (cellContent, bool) {
	defer m.op()
	i := m.find(key)
	switch {
	case i < 0:
		if m.adaptive && m.ghost[key] {
			m.ghostHitsWin++
			m.ghostHits++
		}
	case m.entries[i].epoch != epoch:
		m.remove(i)
	default:
		m.touch(m.entries[i])
		m.hits++
		return m.entries[i].content, true
	}
	m.misses++
	return cellContent{}, false
}

// contained probes the cached levels deepest first, as the cache documents.
func (m *eagerCache) contained(ds object.DatasetID, fanout int, epoch int64, ext geom.Box) (cellContent, octree.Key, bool) {
	for level := 32; level >= 0; level-- {
		cell, ok := octree.CellAt(m.bounds, fanout, uint32(level), ext.Min)
		if !ok {
			continue
		}
		i := m.find(scanKey{ds: ds, cell: cell})
		if i < 0 {
			continue
		}
		if e := m.entries[i]; e.epoch != epoch {
			m.remove(i)
		} else if cell.Box(m.bounds, fanout).Contains(ext) {
			m.touch(e)
			return e.content, cell, true
		}
	}
	return cellContent{}, octree.Key{}, false
}

func (m *eagerCache) insert(key scanKey, epoch int64, content cellContent) {
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
	e := &eagerEntry{key: key, epoch: epoch, content: content, heat: 1}
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
	m.entries, m.objects = nil, 0
}

// TestResultCacheLazyEvictionIsEager drives the cache and the eager model
// with one seeded sequence of inserts, lookups, containment probes, clock
// advances and epoch changes at a capacity that forces evictions — with and
// without heat decay, with and without the capacity tuner — and requires the
// same answers — the same objects with the same child directory, which every
// insert makes its own — the same cached set after every operation (so the
// same victims, in the same order), and the same ledger.
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
				var tick, epoch int64 = 0, 1
				c := newResultCache(bounds, 300)
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
				byCell := func(a, b scanKey) int { return compareKeys(a.cell, b.cell) }
				for i := 0; i < 40000; i++ {
					// A skewed choice of cell, so that some entries are hot.
					u := r.Float64()
					cell := cells[int(float64(len(cells))*u*u*u)]
					key := scanKey{ds: 1, cell: cell}
					var got, want cellContent
					var gotAt, wantAt octree.Key
					var gotOK, wantOK bool
					p := r.Float64()
					switch {
					case p < 0.75: // a cell read: what misses is inserted below
						got, gotOK = c.Lookup(key.ds, cell, epoch)
						want, wantOK = m.lookup(key, epoch)
					case p < 0.85:
						ext := geom.Cube(geom.V(r.Float64(), r.Float64(), r.Float64()), 0.05*r.Float64())
						got, gotAt, gotOK = c.AnswerContained(1, fanout, epoch, ext)
						want, wantAt, wantOK = m.contained(1, fanout, epoch, ext)
					case p < 0.95:
						tick += int64(r.Intn(12))
					case p < 0.951:
						epoch++
						c.Invalidate()
						m.invalidate()
					}
					if p < 0.75 && !gotOK || p >= 0.951 {
						at := epoch
						if r.Intn(20) == 0 {
							at-- // a read that raced a publish: dead on arrival
						}
						in := cellContent{objs: content[:r.Intn(len(content))]}
						if r.Intn(3) > 0 {
							in.children = []int32{int32(i), int32(len(in.objs))} // this insert's own directory
						}
						before, mark := cached(), len(m.evicted)
						c.Insert(key.ds, cell, at, cell.Box(bounds, fanout), in)
						m.insert(key, at, in)
						// What this insert pushed out of the cache, against what it
						// pushed out of the model: insert by insert, so the victims
						// come in the same order (as sets within one insert, where
						// only the model shows an order).
						evicted := slices.DeleteFunc(before, func(k scanKey) bool { return k == key || c.entries[k] != nil })
						wantEvicted := slices.Clone(m.evicted[mark:])
						slices.SortFunc(evicted, byCell)
						slices.SortFunc(wantEvicted, byCell)
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
					st.CapacityGrows != m.grows || st.CapacityShrinks != m.shrinks {
					t.Fatalf("ledger: cache %+v; model evictions %d hits %d misses %d ghost hits %d capacity %d grows %d shrinks %d",
						st, m.evictions, m.hits, m.misses, m.ghostHits, m.capacity, m.grows, m.shrinks)
				}
				if st.Evictions < 1000 || st.Hits < 1000 || adaptive && st.CapacityGrows+st.CapacityShrinks == 0 {
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
// grow the budget, and, after an epoch boundary, a run long enough to cross it
// three times over an idle budget, which shrinks it twice. The capacity, the
// tuner's moves, the ghost hits and the hits must match the model's at every
// step, and the hits must be the hits served.
func TestResultCacheRunTunesOnCadence(t *testing.T) {
	var tick int64
	var epoch atomic.Int64
	epoch.Store(1)
	c := newResultCache(geom.UnitBox(), 300)
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
		_, ok := c.Lookup(1, cell, epoch.Load())
		if _, want := m.lookup(key, epoch.Load()); ok != want {
			t.Fatalf("lookup of %v: the cache hit %v, the model %v", cell, ok, want)
		}
		if ok {
			served++
			return
		}
		c.Insert(1, cell, epoch.Load(), geom.UnitBox(), content)
		m.insert(key, epoch.Load(), content)
	}
	// run is readMerged's run of hits: the model books them one by one.
	run := func(cells ...octree.Key) {
		reads := make([]mergeRead, len(cells))
		for i, cell := range cells {
			reads[i] = mergeRead{entry: cell, ds: 1}
		}
		hits := c.LookupRun(nil, reads, &epoch)
		for _, cell := range cells[:len(hits)] {
			if _, ok := m.lookup(scanKey{ds: 1, cell: cell}, epoch.Load()); !ok {
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

	epoch.Add(1)
	c.Invalidate()
	m.invalidate()
	read(cells[0])
	read(cells[1])
	check("after the epoch boundary")
	long = make([]octree.Key, 3*tuneEvery+10)
	for i := range long {
		long[i] = cells[i%2]
	}
	before := m.shrinks
	// Due to tune three times over two cells of a grown budget: the first tune
	// still sees the flushed epoch's peak, the next two shrink.
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
		c := newResultCache(geom.UnitBox(), tc.start)
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
// lookups, run lookups, inserts, and publishes that advance the epoch and
// flush — and holds the two things sharing the lock on a hit could break:
// the ledger still counts every lookup exactly once (a run books its hits,
// never the read that ended it), and no lookup is ever answered from another
// epoch's entry — nor with another entry's child directory.
func TestResultCacheStorm(t *testing.T) {
	const fanout = 2
	bounds := geom.UnitBox()
	c := newResultCache(bounds, 32)
	var tick atomic.Int64
	c.halfLife, c.tick = 8, tick.Load
	c.enableAdaptive()
	c.capacity, c.maxCap = 32, 128 // the 64 cells below hold 256 objects: the tuner grows the budget, evictions never stop
	var epoch atomic.Int64
	epoch.Store(1)

	// A run of reads over the level-2 cells, in a fixed order.
	var run []mergeRead
	for x := uint32(0); x < 4; x++ {
		for y := uint32(0); y < 4; y++ {
			for z := uint32(0); z < 4; z++ {
				run = append(run, mergeRead{entry: testKeyAt(2, x, y, z), ds: 1, start: int64(len(run))})
			}
		}
	}
	// An entry's content names the epoch it was inserted under, in its
	// objects and in its directory.
	insert := func(r mergeRead) {
		at := epoch.Load()
		objs := make([]object.Object, 4)
		objs[0].ID = uint64(at)
		c.Insert(r.ds, r.entry, at, r.entry.Box(bounds, fanout), cellContent{objs: objs, children: []int32{int32(at)}})
	}
	// torn reports content whose objects and directory came from two entries.
	torn := func(got cellContent) bool { return got.objs[0].ID != uint64(got.children[0]) }
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
	// Publishes, for as long as the lookups run: the epoch advances, then the
	// cache is flushed, as bumpLayoutEpoch does.
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
			epoch.Add(1)
			c.Invalidate()
			c.AnswerContained(1, fanout, epoch.Load(), geom.Cube(geom.V(r.Float64(), r.Float64(), r.Float64()), 0.01))
		}
	}()
	for g := int64(0); g < 2; g++ {
		worker(g, func(r *rand.Rand) { // single lookups, inserting what missed
			tick.Add(1)
			rd := run[r.Intn(len(run))]
			at := epoch.Load()
			got, ok := c.Lookup(rd.ds, rd.entry, at)
			lookups.Add(1)
			if ok && (got.objs[0].ID != uint64(at) || torn(got)) {
				fail("Lookup at epoch %d answered from epoch %d's entry (directory %v)", at, got.objs[0].ID, got.children)
			}
			if !ok {
				insert(rd)
			}
		})
		worker(10+g, func(r *rand.Rand) { // run lookups, as readMerged issues them
			reads := run[r.Intn(len(run)):]
			for len(reads) > 0 {
				lo := epoch.Load()
				hits := c.LookupRun(nil, reads, &epoch)
				hi := epoch.Load()
				lookups.Add(int64(len(hits)))
				for _, got := range hits {
					if id := got.objs[0].ID; id < uint64(lo) || id > uint64(hi) || torn(got) {
						fail("LookupRun between epochs %d and %d answered from epoch %d's entry (directory %v)", lo, hi, id, got.children)
					}
				}
				if reads = reads[len(hits):]; len(reads) > 0 {
					if _, ok := c.Lookup(reads[0].ds, reads[0].entry, epoch.Load()); !ok {
						insert(reads[0])
					}
					lookups.Add(1)
					reads = reads[1:]
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
