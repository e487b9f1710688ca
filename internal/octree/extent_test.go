package octree

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"spaceodyssey/internal/geom"
	"spaceodyssey/internal/object"
	"spaceodyssey/internal/rawfile"
	"spaceodyssey/internal/simdisk"
)

// FuzzPartitionExtent holds every leaf's extent to its objects, after the
// level-0 build and after refinements, in two exploration volumes: the
// extent contains each object's box as the query filter computes it (center
// ± half-extent), so a query any of them meets meets the extent too, and the
// walk's float32 test agrees with the box Extent returns; an empty leaf's
// extent meets nothing, not even the largest finite box.
func FuzzPartitionExtent(f *testing.F) {
	f.Add(int64(1), uint16(200), 0.02, false, 0.3, 0.3, 0.3, 0.1)
	f.Add(int64(7), uint16(5), 0.3, true, 0.9, 0.1, 0.5, 0.01)
	f.Add(int64(3), uint16(0), 0.0, false, 0.5, 0.5, 0.5, 0.5)
	f.Fuzz(func(t *testing.T, seed int64, n uint16, heFrac float64, skewed bool, qx, qy, qz, qSide float64) {
		for _, v := range []float64{heFrac, qx, qy, qz, qSide} {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e6 {
				return
			}
		}
		bounds := geom.UnitBox()
		if skewed {
			bounds = geom.Box{Min: geom.V(-1.3, 0.1, 7), Max: geom.V(2.9, 0.7, 1e3/3.0)}
		}
		size := bounds.Size()
		at := func(u geom.Vec) geom.Vec { // a point of bounds, by fractions of its sides
			return geom.Vec{X: bounds.Min.X + u.X*size.X, Y: bounds.Min.Y + u.Y*size.Y, Z: bounds.Min.Z + u.Z*size.Z}
		}
		r := rand.New(rand.NewSource(seed))
		objs := make([]object.Object, int(n)%400)
		for i := range objs {
			he := math.Abs(heFrac) * r.Float64()
			objs[i] = object.Object{
				ID: uint64(i), Dataset: 1,
				Center:     at(geom.V(r.Float64(), r.Float64(), r.Float64())),
				HalfExtent: geom.Vec{X: he * size.X, Y: he * r.Float64() * size.Y, Z: he * size.Z},
			}
		}
		dev := simdisk.NewDevice(simdisk.CostModel{}, 0)
		raw, err := rawfile.Write(dev, "ds1", 1, objs)
		if err != nil {
			t.Fatal(err)
		}
		tree, err := New(dev, raw, bounds, Config{PartitionsPerLevel: 8, RefinementThreshold: 4, MaxDepth: 6})
		if err != nil {
			t.Fatal(err)
		}
		q := geom.Box{Min: at(geom.V(qx, qy, qz)), Max: at(geom.V(qx+math.Abs(qSide), qy+math.Abs(qSide), qz+math.Abs(qSide)))}
		check := func(when string) {
			huge := geom.Box{Min: geom.Splat(-math.MaxFloat64), Max: geom.Splat(math.MaxFloat64)}
			for _, p := range tree.Lookup(huge) {
				got, err := tree.ReadPartitionIntoCtx(context.Background(), nil, p)
				if err != nil {
					t.Fatal(err)
				}
				e := p.Extent()
				if len(got) == 0 {
					if p.ext.meets(huge) || e.Intersects(huge) || p.ext.meets(q) {
						t.Fatalf("%s: empty leaf %v has extent %v, which meets a finite box", when, p.Key(), e)
					}
					continue
				}
				for i := range got {
					o := &got[i]
					lo, hi := o.Center.Sub(o.HalfExtent), o.Center.Add(o.HalfExtent)
					if !e.Min.LessEq(lo) || !hi.LessEq(e.Max) {
						t.Fatalf("%s: leaf %v's extent %v does not hold object %d's box [%v, %v]", when, p.Key(), e, o.ID, lo, hi)
					}
				}
				if p.ext.meets(q) != e.Intersects(q) {
					t.Fatalf("%s: leaf %v: the walk's test says %v for %v, the extent box %v", when, p.Key(), p.ext.meets(q), q, e)
				}
				if len(object.AppendIntersecting(nil, got, q)) > 0 && !p.ext.meets(q) {
					t.Fatalf("%s: leaf %v has objects meeting %v, but its extent %v misses it", when, p.Key(), q, e)
				}
			}
		}
		if err := tree.EnsureBuiltCtx(context.Background()); err != nil {
			t.Fatal(err)
		}
		check("after the build")
		for range 3 {
			if _, err := tree.QueryIntoCtx(context.Background(), nil, nil, q, nil, nil, true); err != nil {
				t.Fatal(err)
			}
		}
		check("after refining")
	})
}
