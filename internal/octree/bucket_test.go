package octree

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"spaceodyssey/internal/datagen"
	"spaceodyssey/internal/geom"
	"spaceodyssey/internal/object"
	"spaceodyssey/internal/rawfile"
	"spaceodyssey/internal/simdisk"
)

// bucketByCellReference is BucketByCell as it was before geom.CellGrid: two
// passes that each work out every object's cell from scratch, step and all
// (cellOf is Box.CellIndex's old body). Which bucket an object lands in, and
// in what order, decides the bytes of every page a build or a refinement
// writes, so BucketByCell must reproduce it exactly.
func bucketByCellReference(box geom.Box, k int, objs, slab []object.Object) (bounds []int32) {
	cellOf := func(o *object.Object) int {
		step := box.Size().Div(float64(k))
		idx := func(coord, lo, st float64) int {
			if st <= 0 {
				return 0
			}
			i := int((coord - lo) / st)
			if i < 0 {
				i = 0
			}
			if i >= k {
				i = k - 1
			}
			return i
		}
		ix, iy, iz := idx(o.Center.X, box.Min.X, step.X), idx(o.Center.Y, box.Min.Y, step.Y), idx(o.Center.Z, box.Min.Z, step.Z)
		return (iz*k+iy)*k + ix
	}
	b := make([]int32, k*k*k+2)
	for i := range objs {
		b[cellOf(&objs[i])+2]++
	}
	for j := 1; j < len(b); j++ {
		b[j] += b[j-1]
	}
	for i := range objs {
		ci := cellOf(&objs[i])
		slab[b[ci+1]] = objs[i]
		b[ci+1]++
	}
	return b[:len(b)-1]
}

// bucketPoints returns centers that exercise every decision of the cell
// arithmetic for box and k: each axis's cell boundaries with the floats on
// either side (all combinations of one boundary per axis would be k³·27; the
// diagonal plus random mixes covers every boundary of every axis), the eight
// corners, points outside the box on every side, and random interior points.
func bucketPoints(r *rand.Rand, box geom.Box, k int) []geom.Vec {
	step := box.Size().Div(float64(k))
	var axis [3][]float64
	for i := 0; i <= k; i++ {
		e := box.Min.Add(step.Mul(float64(i)))
		for d, v := range []float64{e.X, e.Y, e.Z} {
			axis[d] = append(axis[d], math.Nextafter(v, math.Inf(-1)), v, math.Nextafter(v, math.Inf(1)))
		}
	}
	var pts []geom.Vec
	for i := range axis[0] {
		pts = append(pts, geom.V(axis[0][i], axis[1][i], axis[2][i]))
	}
	pick := func(d int) float64 { return axis[d][r.Intn(len(axis[d]))] }
	for i := 0; i < 200; i++ {
		pts = append(pts, geom.V(pick(0), pick(1), pick(2)))
	}
	for c := 0; c < 8; c++ {
		pts = append(pts, box.Octant(c).Min, box.Octant(c).Max)
	}
	size := box.Size()
	for _, f := range []float64{-1e6, -1, -0.001, 1.001, 2, 1e6} {
		pts = append(pts, box.Min.Add(size.Mul(f)), geom.V(box.Min.X+size.X*f, box.Center().Y, box.Center().Z))
	}
	for i := 0; i < 300; i++ {
		pts = append(pts, box.Min.Add(geom.V(size.X*r.Float64(), size.Y*r.Float64(), size.Z*r.Float64())))
	}
	r.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
	return pts
}

// TestBucketByCellMatchesReference: equal slab and equal bounds on generated
// boxes — the unit cube, a level-3 cell of it (where coord-lo is tiny against
// coord), offset and anisotropic boxes, one with a zero-width axis — for every
// fanout the engine is configured with, and on an empty input.
func TestBucketByCellMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	boxes := []geom.Box{
		geom.UnitBox(),
		Key{Level: 3, X: 37, Y: 5, Z: 63}.Box(geom.UnitBox(), 4),
		geom.NewBox(geom.V(-7.5, 100, 1e-3), geom.V(-7.25, 1e4, 2e-3)),
		geom.NewBox(geom.V(0.1, 0.2, 0.3), geom.V(0.9, 0.2, 0.7)), // degenerate Y
	}
	for i := 0; i < 12; i++ {
		c := geom.V(r.NormFloat64()*10, r.NormFloat64()*10, r.NormFloat64()*10)
		boxes = append(boxes, geom.BoxFromCenter(c, geom.V(r.ExpFloat64(), r.ExpFloat64(), r.ExpFloat64())))
	}
	for _, box := range boxes {
		for _, k := range []int{2, 3, 4, 8} {
			pts := bucketPoints(r, box, k)
			objs := make([]object.Object, len(pts))
			for i, p := range pts {
				objs[i] = object.Object{ID: uint64(i), Center: p}
			}
			for _, in := range [][]object.Object{objs, nil} {
				got, want := make([]object.Object, len(in)), make([]object.Object, len(in))
				// Appended behind bounds already in dst, which stay as they were.
				gotB := BucketByCell([]int32{-7}, box, k, in, got)
				wantB := bucketByCellReference(box, k, in, want)
				if gotB[0] != -7 || !slices.Equal(gotB[1:], wantB) {
					t.Fatalf("box %v k=%d, %d objects: bounds %v, reference %v", box, k, len(in), gotB, wantB)
				}
				if !slices.Equal(got, want) {
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("box %v k=%d: slab[%d] is object %d (center %v), reference has object %d",
								box, k, i, got[i].ID, got[i].Center, want[i].ID)
						}
					}
				}
			}
		}
	}
}

// TestBucketByCellAllocatesOnlyItsBounds: the per-object cell indices come
// from a pool, so a refinement-sized bucketing costs one allocation — the
// bounds it returns — and none when the caller's dst has room for them (a
// merge stage's child directories).
func TestBucketByCellAllocatesOnlyItsBounds(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	objs, slab := benchObjects(2000), make([]object.Object, 2000)
	if n := testing.AllocsPerRun(100, func() {
		BucketByCell(nil, geom.UnitBox(), 4, objs, slab)
	}); n != 1 {
		t.Errorf("BucketByCell on a warm pool: %v allocations, want 1 (its bounds)", n)
	}
	dst := make([]int32, 0, 2*(4*4*4+2))
	if n := testing.AllocsPerRun(100, func() {
		BucketByCell(BucketByCell(dst, geom.UnitBox(), 4, objs, slab), geom.UnitBox(), 4, objs, slab)
	}); n != 0 {
		t.Errorf("BucketByCell into a dst with room: %v allocations, want 0", n)
	}
}

// benchObjects returns n generated objects of one dataset in the unit cube.
func benchObjects(n int) []object.Object {
	return datagen.Generate(datagen.Config{Seed: 9, NumObjects: n, Clusters: 5}, 1)
}

func BenchmarkBucketByCell(b *testing.B) {
	objs := benchObjects(4000) // a level-1 partition or two
	slab := make([]object.Object, len(objs))
	b.ReportAllocs()
	for b.Loop() {
		BucketByCell(nil, geom.UnitBox(), 4, objs, slab)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(objs)), "ns/object")
}

// BenchmarkLevelZeroBuild is the expensive first query of Figure 5 in host
// time: one in-situ scan of a 100,000-object raw file, the bucketing and the
// ppl cell writes, on the reduced-scale device model.
func BenchmarkLevelZeroBuild(b *testing.B) {
	dev := simdisk.NewDevice(simdisk.ReducedScaleCostModel(), 1024)
	raw, err := rawfile.Write(dev, "ds1", 1, benchObjects(100_000))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		tree, err := New(dev, raw, geom.UnitBox(), DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		if err := tree.EnsureBuiltCtx(context.Background()); err != nil {
			b.Fatal(err)
		}
		if err := tree.File().Delete(); err != nil { // timed, and next to nothing
			b.Fatal(err)
		}
	}
}

// TestRefinementAllocatesAConstant: a split carves its children from one
// slice and their runs from another, and its scratch is pooled, so a
// refinement allocates a constant whatever the fanout — four objects (the
// detached context's two, the children, their runs) plus the device chunks
// its overflow pages land in — not a partition, a run list and a reuse list
// per child as it used to (over 130 at ppl=64).
func TestRefinementAllocatesAConstant(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	for _, ppl := range []int{8, 64, 216} {
		tree, _, _ := testTree(t, 20_000, Config{PartitionsPerLevel: ppl}, 3)
		if err := tree.EnsureBuiltCtx(context.Background()); err != nil {
			t.Fatal(err)
		}
		var leaves []*Partition
		for _, p := range tree.Lookup(geom.UnitBox()) {
			if p.Count() > 0 {
				leaves = append(leaves, p)
			}
		}
		scratch := new([]object.Object)
		next := 0
		n := testing.AllocsPerRun(min(len(leaves)-1, 20), func() {
			if _, err := tree.refineCtx(context.Background(), leaves[next], scratch); err != nil {
				t.Fatal(err)
			}
			next++
		})
		if n > 10 {
			t.Errorf("ppl=%d: a refinement allocates %v objects, want at most 10", ppl, n)
		}
	}
}
