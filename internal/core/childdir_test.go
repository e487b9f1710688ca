package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"spaceodyssey/internal/datagen"
	"spaceodyssey/internal/engine"
	"spaceodyssey/internal/geom"
	"spaceodyssey/internal/object"
	"spaceodyssey/internal/octree"
)

// childDirBounds are the exploration volumes the directory is checked over:
// the unit cube, and an offset anisotropic volume where coord-lo is tiny
// against coord in a deep cell.
var childDirBounds = []geom.Box{
	geom.UnitBox(),
	geom.NewBox(geom.V(-7.5, 100, 1e-3), geom.V(-7.25, 1e4, 2e-3)),
}

// premiseHolds reports whether every object of objs intersecting q has its
// center inside ext — the premise of the whole read path: the tree walk
// reads the leaves ext meets, a containment answer needs ext inside a cached
// region, and keepCell the children ext meets. The directory is exact under
// it; an input violating it (a center a rounding step outside ext) would be
// missed by the walk as well.
func premiseHolds(objs []object.Object, q, ext geom.Box) bool {
	for i := range objs {
		if objs[i].Intersects(q) && !ext.ContainsPoint(objs[i].Center) {
			return false
		}
	}
	return true
}

// checkChildDirectory stores objs as a merge segment of the entry cell key is
// stored — grouped by groupByChildren, the merge copy's own layout — and
// requires the directory to be on the k grid for fewer than (2k)³ objects
// and on the 2k grid from (2k)³ on, and keepCell over each window, extended
// by the objects' max half-extent as readDataset does, to keep exactly the
// multiset that AppendIntersecting over the whole cell keeps. It returns how
// many objects the directory walk tested over all windows.
func checkChildDirectory(t testing.TB, bounds geom.Box, key octree.Key, k int, objs []object.Object, windows []geom.Box) (tested int) {
	t.Helper()
	slab := make([]object.Object, len(objs))
	c := cellContent{objs: slab, children: groupByChildren(nil, bounds, key, k, objs, slab)}
	grid := k
	if len(objs) >= (2*k)*(2*k)*(2*k) {
		grid = 2 * k
	}
	if len(c.children) != grid*grid*grid+1 {
		t.Fatalf("key %v k=%d, %d objects: a directory of %d bounds, want the %d grid's %d",
			key, k, len(objs), len(c.children), grid, grid*grid*grid+1)
	}
	var maxExt geom.Vec
	for i := range objs {
		maxExt = maxExt.Max(objs[i].HalfExtent)
	}
	box := EntryBox(bounds, key, k)
	for _, q := range windows {
		ext := q.Expand(maxExt)
		if !premiseHolds(objs, q, ext) {
			t.Fatalf("key %v k=%d window %v: an intersecting object's center lies outside the extended window", key, k, q)
		}
		acc := queryAcc{q: q, fanout: k}
		acc.keepCell(c, box, ext)
		want := object.AppendIntersecting(nil, objs, q)
		engine.SortObjects(acc.out)
		engine.SortObjects(want)
		if !slices.Equal(acc.out, want) {
			t.Fatalf("bounds %v key %v k=%d window %v: the directory kept %d objects, the whole filter %d",
				bounds, key, k, q, len(acc.out), len(want))
		}
		if acc.tested < len(want) || acc.tested > len(objs) {
			t.Fatalf("key %v k=%d window %v: tested %d objects to keep %d of %d", key, k, q, acc.tested, len(want), len(objs))
		}
		tested += acc.tested
	}
	return tested
}

// childDirAxes returns, per axis, the coordinates that exercise every
// decision of the grid arithmetic over box's k×k×k grid: each cell boundary
// as CellGrid places it with the floats on either side, and a coordinate
// outside the box beyond each face (which the bucketing clamps into the edge
// cells).
func childDirAxes(box geom.Box, k int) [3][]float64 {
	step := box.Size().Div(float64(k))
	var axes [3][]float64
	for d := 0; d < 3; d++ {
		lo, st, size := box.Min.Component(d), step.Component(d), box.Size().Component(d)
		for i := 0; i <= k; i++ {
			e := lo + st*float64(i)
			axes[d] = append(axes[d], math.Nextafter(e, math.Inf(-1)), e, math.Nextafter(e, math.Inf(1)))
		}
		axes[d] = append(axes[d], lo-0.3*size, box.Max.Component(d)+0.3*size)
	}
	return axes
}

// childDirObjects generates n objects of a cell's content: centers on every
// cell boundary of both directory grids over box — its k children and the 2k
// grid — and one float either side (the diagonals, then random mixes of one
// coordinate per axis), outside the box on every face, and inside it at
// random; half-extents zero, maximal (maxHalf) and in between.
func childDirObjects(r *rand.Rand, box geom.Box, k int, maxHalf geom.Vec, n int) []object.Object {
	var centers []geom.Vec
	var axes [3][]float64
	for _, grid := range []int{k, 2 * k} {
		ga := childDirAxes(box, grid)
		for i := range ga[0] {
			centers = append(centers, geom.V(ga[0][i], ga[1][i], ga[2][i]))
		}
		for d := range axes {
			axes[d] = append(axes[d], ga[d]...)
		}
	}
	pick := func(d int) float64 { return axes[d][r.Intn(len(axes[d]))] }
	for mixes := (n - len(centers)) * 3 / 5; mixes > 0; mixes-- {
		centers = append(centers, geom.V(pick(0), pick(1), pick(2)))
	}
	size := box.Size()
	for len(centers) < n {
		centers = append(centers, box.Min.Add(geom.V(size.X*r.Float64(), size.Y*r.Float64(), size.Z*r.Float64())))
	}
	objs := make([]object.Object, n)
	for i, c := range centers[:n] {
		var h geom.Vec
		switch i % 3 {
		case 1:
			h = maxHalf
		case 2:
			h = maxHalf.Mul(r.Float64())
		}
		objs[i] = object.Object{ID: uint64(i), Dataset: 1, Center: c, HalfExtent: h}
	}
	r.Shuffle(len(objs), func(i, j int) { objs[i], objs[j] = objs[j], objs[i] })
	return objs
}

// childDirWindows returns query windows against box's k×k×k grid: inside
// one cell, straddling a cell boundary, faces exactly on cell boundaries,
// covering the whole cell, just outside a face and far outside it.
func childDirWindows(r *rand.Rand, box geom.Box, k int) []geom.Box {
	step := box.Size().Div(float64(k))
	axes := childDirAxes(box, k)
	child := func() geom.Vec {
		return box.Min.Add(geom.V(step.X*(float64(r.Intn(k))+0.5), step.Y*(float64(r.Intn(k))+0.5), step.Z*(float64(r.Intn(k))+0.5)))
	}
	boundary := func(d int) float64 { return axes[d][3*r.Intn(k+1)+1] }
	var out []geom.Box
	for i := 0; i < 20; i++ {
		out = append(out,
			geom.BoxFromCenter(child(), step.Mul(0.3*r.Float64())),                           // inside one child
			geom.BoxFromCenter(geom.V(boundary(0), boundary(1), boundary(2)), step.Mul(0.5)), // straddling
		)
		lo := geom.V(boundary(0), boundary(1), boundary(2))
		out = append(out, geom.Box{Min: lo, Max: lo.Add(step)}) // faces on child boundaries
	}
	size := box.Size()
	out = append(out,
		geom.BoxFromCenter(box.Center(), size),                                         // covering the cell
		geom.Box{Min: box.Min.Sub(size), Max: box.Max.Add(size)},                       // covering it widely
		geom.Box{Min: geom.V(box.Max.X, box.Min.Y, box.Min.Z), Max: box.Max.Add(size)}, // touching a face
		geom.BoxFromCenter(box.Max.Add(size.Mul(3)), size.Mul(0.1)),                    // far outside
		geom.BoxFromCenter(box.Min.Sub(size.Mul(3)), size.Mul(0.1)),
	)
	return out
}

// TestChildDirectoryMatchesWholeFilter is the reference model of the child
// directory: over generated cells at levels 1-3 for every fanout in
// {2, 3, 4}, in two exploration volumes, one object short of (2k)³ (the k³
// children) and at (2k)³ (the 2k grid), filtering a grouped segment through
// its directory keeps exactly what filtering the whole cell keeps — boundary
// centers of both grids, clamped outside centers, zero and maximal
// half-extents, windows inside, across, around and outside the cells of both
// grids. It also requires the directory to have narrowed something: a model
// that always filtered the whole cell would pass the comparison.
func TestChildDirectoryMatchesWholeFilter(t *testing.T) {
	r := rand.New(rand.NewSource(25))
	for _, bounds := range childDirBounds {
		for _, k := range []int{2, 3, 4} {
			fine := (2 * k) * (2 * k) * (2 * k)
			for level := uint32(1); level <= 3; level++ {
				side := uint32(math.Pow(float64(k), float64(level)))
				for cell := 0; cell < 3; cell++ {
					key := octree.Key{Level: level, X: uint32(r.Intn(int(side))), Y: uint32(r.Intn(int(side))), Z: uint32(r.Intn(int(side)))}
					box := EntryBox(bounds, key, k)
					step := box.Size().Div(float64(k))
					for _, maxHalf := range []geom.Vec{{}, step.Mul(0.4)} {
						for _, n := range []int{fine - 1, fine} {
							objs := childDirObjects(r, box, k, maxHalf, n)
							windows := append(childDirWindows(r, box, k), childDirWindows(r, box, 2*k)...)
							tested := checkChildDirectory(t, bounds, key, k, objs, windows)
							if whole := len(objs) * len(windows); tested >= whole {
								t.Fatalf("bounds %v key %v k=%d: the directory tested %d objects over the windows, the whole filter %d",
									bounds, key, k, tested, whole)
							}
						}
					}
				}
			}
		}
	}
}

// FuzzChildDirectory drives the reference model from fuzzed coordinates: a
// cell at a fuzzed fanout, level and position, the boundary objects of the
// model plus one fuzzed object — one short of (2k)³ objects or (2k)³, by the
// seed — and a fuzzed window. Inputs outside the read path's premise (see
// premiseHolds) are not the directory's to answer and are skipped.
func FuzzChildDirectory(f *testing.F) {
	f.Add(uint8(2), uint8(1), uint32(1), uint32(2), uint32(3), 0.6, 0.3, 0.55, 0.01, 0.6, 0.35, 0.5, 0.05, int64(1))
	f.Add(uint8(0), uint8(2), uint32(3), uint32(0), uint32(2), 0.375, 0.125, 0.25, 0.0, 0.375, 0.1, 0.3, 0.02, int64(2))
	f.Add(uint8(1), uint8(0), uint32(0), uint32(0), uint32(0), 0.5, 0.5, 0.5, 0.2, 0.1, 0.9, 0.2, 0.3, int64(3))
	f.Add(uint8(2), uint8(0), uint32(2), uint32(1), uint32(0), 0.625, 0.375, 0.125, 0.0, 0.625, 0.375, 0.125, 0.0, int64(4))
	f.Fuzz(func(t *testing.T, kSel, levelSel uint8, x, y, z uint32, ox, oy, oz, oh, qx, qy, qz, qh float64, seed int64) {
		for _, v := range []float64{ox, oy, oz, oh, qx, qy, qz, qh} {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e6 {
				return
			}
		}
		if oh < 0 || qh < 0 {
			return
		}
		k := 2 + int(kSel%3)
		level := 1 + uint32(levelSel%3)
		side := uint32(math.Pow(float64(k), float64(level)))
		bounds := childDirBounds[seed&1]
		key := octree.Key{Level: level, X: x % side, Y: y % side, Z: z % side}
		box := EntryBox(bounds, key, k)
		r := rand.New(rand.NewSource(seed))
		n := (2*k)*(2*k)*(2*k) - 2 + int(seed>>1&1)
		objs := childDirObjects(r, box, k, box.Size().Div(float64(k)).Mul(0.4*r.Float64()), n)
		objs = append(objs, object.Object{ID: uint64(len(objs)), Dataset: 1, Center: geom.V(ox, oy, oz), HalfExtent: geom.Splat(oh)})
		q := geom.BoxFromCenter(geom.V(qx, qy, qz), geom.Splat(qh))
		var maxExt geom.Vec
		for i := range objs {
			maxExt = maxExt.Max(objs[i].HalfExtent)
		}
		if !premiseHolds(objs, q, q.Expand(maxExt)) {
			return
		}
		checkChildDirectory(t, bounds, key, k, objs, []geom.Box{q})
	})
}

// TestDirectoryTravelsWithContent: a tree partition and a merge segment of
// one (dataset, cell) are the same multiset in different orders, and they
// share the result cache's and the in-flight reads' key space. Whatever
// answers the key — within one layout epoch — must be filtered through the
// directory of the content it is, never through the merge file's entry for
// the key. Every answer is checked against a brute-force scan.
func TestDirectoryTravelsWithContent(t *testing.T) {
	// Level-1 cells hold ~250 objects of each dataset (four pages and more),
	// and the window's volume keeps every touched level-1 leaf under the
	// refinement threshold, so no query below changes the layout. Its faces
	// cut the outer children of every touched cell off, so the directory
	// always narrows.
	q := geom.Cube(geom.V(0.5, 0.5, 0.5), 0.3)
	merged := []object.DatasetID{0, 1, 2}
	other := []object.DatasetID{0, 3} // routed to no merge file: walks dataset 0's tree
	type fixture struct {
		eng    *Odyssey
		oracle *engine.NaiveScan
		mf     *MergeFile
		entry  octree.Key // the entry whose segment of dataset 0 is fullest
	}
	setup := func(t *testing.T, cfg Config) fixture {
		eng, raws, _ := testSetup(t, 4, 16000, 57, cfg)
		f := fixture{eng: eng, oracle: engine.NewNaiveScan(raws)}
		// Dataset 3's level-0 build is a layout change: it happens here.
		for _, dss := range [][]object.DatasetID{{3}, merged, merged} {
			if _, err := eng.Query(q, dss); err != nil {
				t.Fatal(err)
			}
		}
		f.mf = eng.merger.file(KeyOf(merged))
		if f.mf == nil {
			t.Fatal("the merged combination has no merge file")
		}
		best := -1
		for _, key := range f.mf.EntryKeys() {
			if seg := f.mf.entries[scanKey{ds: 0, cell: key}]; seg.count > best {
				best, f.entry = seg.count, key
			}
		}
		if seg := f.mf.entries[scanKey{ds: 0, cell: f.entry}]; len(seg.children) == 0 || seg.count <= object.PageCapacity {
			t.Fatalf("the fullest segment (%d objects) has no child directory", seg.count)
		}
		return f
	}
	answer := func(f fixture, ctx context.Context, dss []object.DatasetID) (int, error) {
		got, err := f.eng.QueryCtx(ctx, q, dss)
		if err != nil {
			return 0, err
		}
		want, err := f.oracle.Query(q, dss)
		if err != nil {
			return 0, err
		}
		if !engine.SameObjects(got, want) {
			return 0, fmt.Errorf("%v over %v: %d objects, the brute-force scan %d", q, dss, len(got), len(want))
		}
		return len(got), nil
	}
	ask := func(t *testing.T, f fixture, dss []object.DatasetID) int {
		t.Helper()
		n, err := answer(f, context.Background(), dss)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}

	t.Run("cache", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.CacheResults = true
		f := setup(t, cfg)
		before, epoch := f.eng.Metrics(), f.eng.layoutEpoch.Load()
		kept := ask(t, f, other)
		it := f.eng.rcache.entries[scanKey{ds: 0, cell: f.entry}]
		if it == nil || it.content.children != nil || len(it.content.objs) != f.mf.entries[scanKey{ds: 0, cell: f.entry}].count {
			t.Fatalf("the walk of %v did not leave the entry's cell cached as its partition, in file order", other)
		}
		hits := f.eng.CacheStats().Hits
		kept += ask(t, f, merged)
		if f.eng.CacheStats().Hits == hits || f.eng.layoutEpoch.Load() != epoch {
			t.Fatal("the merged query did not read the cached partition within the epoch")
		}
		after := f.eng.Metrics()
		if got := after.ObjectsKept - before.ObjectsKept; got != int64(kept) {
			t.Fatalf("ObjectsKept grew by %d over two queries returning %d objects", got, kept)
		}
		if after.ObjectsTested-before.ObjectsTested < int64(kept) {
			t.Fatalf("ObjectsTested grew by %d, less than the %d objects kept", after.ObjectsTested-before.ObjectsTested, kept)
		}
	})

	// A read of the cell is held in flight by the test while a query attaches
	// to it, and lets it go once the query has attached.
	inFlight := func(t *testing.T, f fixture, lead func(read func() (cellContent, error)), dss []object.DatasetID, content func() (cellContent, error)) {
		started, gate, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			lead(func() (cellContent, error) {
				close(started)
				<-gate
				return content()
			})
		}()
		<-started
		attached := make(chan struct{}, 8)
		answered := make(chan struct{})
		go func() {
			defer close(answered)
			if _, err := answer(f, attachSpy{context.Background(), attached}, dss); err != nil {
				t.Error(err)
			}
		}()
		<-attached
		close(gate)
		<-answered
		<-done
		if n := f.eng.SharingStats().AttachedScans; n != 1 {
			t.Fatalf("AttachedScans = %d, want the query attached to the read in flight", n)
		}
	}
	t.Run("flight/segment-reader-attaches-to-partition", func(t *testing.T) {
		f := setup(t, cacheConfig())
		tree := f.eng.trees[0]
		leaf := tree.LeafAt(f.entry)
		inFlight(t, f, func(read func() (cellContent, error)) {
			// What a tree walk of another combination issues for the leaf.
			if _, err := tree.ShareReader(context.Background(), leaf, func(context.Context) ([]object.Object, error) {
				c, err := read()
				return c.objs, err
			}); err != nil {
				t.Error(err)
			}
		}, merged, func() (cellContent, error) {
			objs, err := tree.ReadPartitionIntoCtx(context.Background(), nil, leaf)
			return cellContent{objs: objs}, err
		})
	})
	t.Run("flight/partition-reader-attaches-to-segment", func(t *testing.T) {
		f := setup(t, cacheConfig())
		inFlight(t, f, func(read func() (cellContent, error)) {
			if _, err := f.eng.readCell(context.Background(), 0, f.entry, nil, geom.Box{}, func(context.Context) (cellContent, error) {
				return read()
			}); err != nil {
				t.Error(err)
			}
		}, other, func() (cellContent, error) {
			return f.eng.merger.ReadSegmentCtx(context.Background(), nil, f.mf, f.entry, 0)
		})
	})

	t.Run("shared-segments", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.Merger.ShareSegments = true
		f := setup(t, cfg)
		sharing := []object.DatasetID{0, 1, 3}
		ask(t, f, sharing)
		ask(t, f, sharing)
		ref := f.eng.merger.file(KeyOf(sharing))
		if ref == nil {
			t.Fatal("the sharing combination has no merge file")
		}
		seg, owner := ref.entries[scanKey{ds: 0, cell: f.entry}], f.mf.entries[scanKey{ds: 0, cell: f.entry}]
		if seg.sharedFrom != f.mf.combo || len(seg.children) == 0 || !slices.Equal(seg.children, owner.children) {
			t.Fatalf("the referencing segment %+v does not carry its owner's directory %v", seg, owner.children)
		}
		ask(t, f, sharing)
	})
}

// mergedCells is BenchmarkMergedCellFilter's fixture: one clustered
// 100,000-object dataset bucketed into the level-1 cells of the paper's
// fanout, each stored grouped as a merge copy stores it, and 2,000 windows
// of volume 1e-4 centred on objects (seed 7).
type mergedCells struct {
	k       int
	maxExt  geom.Vec
	cells   []mergedCell
	windows []geom.Box
}

type mergedCell struct {
	box     geom.Box
	content cellContent
}

func newMergedCells() *mergedCells {
	const k = 4
	bounds := geom.UnitBox()
	objs := datagen.Generate(datagen.Config{Seed: 1, NumObjects: 100_000}, 1)
	f := &mergedCells{k: k}
	for i := range objs {
		f.maxExt = f.maxExt.Max(objs[i].HalfExtent)
	}
	byCell := make([]object.Object, len(objs))
	cellBounds := octree.BucketByCell(nil, bounds, k, objs, byCell)
	for ci := 0; ci < k*k*k; ci++ {
		key := octree.Key{Level: 1, X: uint32(ci % k), Y: uint32(ci / k % k), Z: uint32(ci / (k * k))}
		in := byCell[cellBounds[ci]:cellBounds[ci+1]]
		slab := make([]object.Object, len(in))
		c := cellContent{objs: slab, children: groupByChildren(nil, bounds, key, k, in, slab)}
		f.cells = append(f.cells, mergedCell{box: EntryBox(bounds, key, k), content: c})
	}
	r := rand.New(rand.NewSource(7))
	side := math.Cbrt(1e-4)
	f.windows = make([]geom.Box, 2000)
	for i := range f.windows {
		f.windows[i] = geom.Cube(objs[r.Intn(len(objs))].Center, side)
	}
	return f
}

// filter runs every window through acc out of every cell its extended window
// meets — through the cells' directories, or, whole, with the directories
// dropped — and returns the objects tested.
func (f *mergedCells) filter(acc *queryAcc, whole bool) int {
	acc.fanout, acc.tested = f.k, 0
	for _, q := range f.windows {
		acc.q, acc.out = q, acc.out[:0]
		ext := q.Expand(f.maxExt)
		for i := range f.cells {
			if !f.cells[i].box.Intersects(ext) {
				continue
			}
			c := f.cells[i].content
			if whole {
				c.children = nil
			}
			acc.keepCell(c, f.cells[i].box, ext)
		}
	}
	return acc.tested
}

// TestFineDirectoryTestsFewer holds the directory's resolution to its count:
// over BenchmarkMergedCellFilter's fixture, a query tests at most 1,000
// objects. With the k³ children on every segment it tested 1,698; the 2k
// grid on the segments of at least (2k)³ objects brings that under 950. The
// count is exact: no timing enters it.
func TestFineDirectoryTestsFewer(t *testing.T) {
	f := newMergedCells()
	var acc queryAcc
	tested := f.filter(&acc, false)
	perQuery := float64(tested) / float64(len(f.windows))
	t.Logf("%.1f objects tested a query through the directories, %d cells", perQuery, len(f.cells))
	if perQuery > 1000 {
		t.Fatalf("%.1f objects tested a query through the directories, want at most 1,000", perQuery)
	}
}

// BenchmarkMergedCellFilter is the filter of a merged cell in host time, over
// the mergedCells fixture: each window is filtered out of every cell its
// extended window meets — through the directory, and with the directory
// dropped (the whole cell, as every merged cell was filtered before). It
// reports the objects tested per query beside the time.
func BenchmarkMergedCellFilter(b *testing.B) {
	f := newMergedCells()
	for _, mode := range []string{"directory", "whole"} {
		b.Run(mode, func(b *testing.B) {
			var acc queryAcc
			tested := 0
			b.ReportAllocs()
			for b.Loop() {
				tested = f.filter(&acc, mode == "whole")
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(f.windows)), "ns/query")
			b.ReportMetric(float64(tested)/float64(len(f.windows)), "tested/query")
		})
	}
}
