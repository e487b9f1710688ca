package geom

import (
	"math"
	"testing"
)

// fuzzBox turns two unconstrained fuzzer vectors into a valid box by using
// one as the center and the other's magnitudes as the half-extent.
func fuzzBox(cx, cy, cz, hx, hy, hz float64) (Box, bool) {
	for _, v := range []float64{cx, cy, cz, hx, hy, hz} {
		if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e12 {
			return Box{}, false
		}
	}
	return BoxFromCenter(V(cx, cy, cz), V(math.Abs(hx), math.Abs(hy), math.Abs(hz))), true
}

// FuzzBoxIntersect checks the box-predicate algebra on arbitrary valid
// boxes: intersection is symmetric, containment implies intersection, the
// computed overlap box is consistent with the predicate, and every box
// intersects and contains itself.
func FuzzBoxIntersect(f *testing.F) {
	f.Add(0.5, 0.5, 0.5, 0.1, 0.1, 0.1, 0.5, 0.5, 0.5, 0.2, 0.2, 0.2)
	f.Add(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.5, 0.5, 0.5)
	f.Add(-3.0, 2.0, 7.5, 1.0, 0.25, 2.0, 4.0, 2.0, -1.0, 8.0, 0.5, 10.0)
	f.Fuzz(func(t *testing.T,
		acx, acy, acz, ahx, ahy, ahz float64,
		bcx, bcy, bcz, bhx, bhy, bhz float64) {
		a, ok := fuzzBox(acx, acy, acz, ahx, ahy, ahz)
		if !ok {
			t.Skip()
		}
		b, ok := fuzzBox(bcx, bcy, bcz, bhx, bhy, bhz)
		if !ok {
			t.Skip()
		}

		if a.Intersects(b) != b.Intersects(a) {
			t.Fatalf("intersection not symmetric: %v vs %v", a, b)
		}
		if !a.Intersects(a) || !a.Contains(a) {
			t.Fatalf("box does not intersect/contain itself: %v", a)
		}
		if a.Contains(b) && !a.Intersects(b) {
			t.Fatalf("containment without intersection: %v contains %v", a, b)
		}
		if b.Contains(a) && !b.Intersects(a) {
			t.Fatalf("containment without intersection: %v contains %v", b, a)
		}

		inter, nonEmpty := a.Intersection(b)
		if nonEmpty != a.Intersects(b) {
			t.Fatalf("Intersection non-empty=%v disagrees with Intersects=%v for %v, %v",
				nonEmpty, a.Intersects(b), a, b)
		}
		if nonEmpty {
			if !inter.Valid() {
				t.Fatalf("invalid overlap box %v", inter)
			}
			if !a.Contains(inter) || !b.Contains(inter) {
				t.Fatalf("overlap %v escapes its operands %v, %v", inter, a, b)
			}
			// The overlap of x with itself is x.
			again, ok := inter.Intersection(inter)
			if !ok || again != inter {
				t.Fatalf("self-intersection of %v changed it", inter)
			}
		}
		if d := a.Dist(b); (d == 0) != a.Intersects(b) {
			t.Fatalf("Dist=%v disagrees with Intersects=%v for %v, %v",
				d, a.Intersects(b), a, b)
		}

		// The union must contain both operands and intersect both.
		u := a.Union(b)
		if !u.Contains(a) || !u.Contains(b) {
			t.Fatalf("union %v misses an operand", u)
		}
	})
}

// cellIndexReference is Box.CellIndex as it was before CellGrid: the step and
// the three coordinates worked out per call. Which cell an object lands in is
// part of every layout, so CellGrid must reproduce it bit for bit.
func cellIndexReference(b Box, k int, p Vec) (ix, iy, iz int) {
	step := b.Size().Div(float64(k))
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
	return idx(p.X, b.Min.X, step.X), idx(p.Y, b.Min.Y, step.Y), idx(p.Z, b.Min.Z, step.Z)
}

// FuzzCellGrid checks CellGrid — Cell, Index and Box.CellIndex on top of it —
// against the reference on arbitrary boxes (degenerate axes included), fanouts
// and points (outside the box, non-finite), and on the points where an
// off-by-one would show: every cell boundary of every axis and its two
// neighbouring floats.
func FuzzCellGrid(f *testing.F) {
	f.Add(0.5, 0.5, 0.5, 0.5, 0.5, 0.5, uint8(4), 0.25, 0.5, 1.0)
	f.Add(0.0, 0.0, 0.0, 10.0, 10.0, 10.0, uint8(5), -1.0, 10.0, 9.999)
	f.Add(3.0, -2.0, 7.5, 1.0, 0.0, 2.0, uint8(3), 3.0, -2.0, 1e300)
	f.Add(1e9, 1e-9, -1e9, 0.1, 1e-12, 1e9, uint8(8), 1e9, 0.0, math.Inf(-1))
	f.Add(0.1, 0.2, 0.3, 0.3, 0.7, 0.9, uint8(2), math.NaN(), 0.2, 0.3)
	f.Fuzz(func(t *testing.T, cx, cy, cz, hx, hy, hz float64, fanout uint8, px, py, pz float64) {
		b, ok := fuzzBox(cx, cy, cz, hx, hy, hz)
		if !ok {
			t.Skip()
		}
		k := 1 + int(fanout)%16
		g := b.Grid(k)
		check := func(p Vec) {
			wx, wy, wz := cellIndexReference(b, k, p)
			if ix, iy, iz := g.Cell(p); ix != wx || iy != wy || iz != wz {
				t.Fatalf("Grid(%d) of %v: Cell(%v) = (%d,%d,%d), reference (%d,%d,%d)", k, b, p, ix, iy, iz, wx, wy, wz)
			}
			if got, want := g.Index(p), (wz*k+wy)*k+wx; got != want {
				t.Fatalf("Grid(%d) of %v: Index(%v) = %d, reference %d", k, b, p, got, want)
			}
			if ix, iy, iz := b.CellIndex(k, p); ix != wx || iy != wy || iz != wz {
				t.Fatalf("%v.CellIndex(%d, %v) = (%d,%d,%d), reference (%d,%d,%d)", b, k, p, ix, iy, iz, wx, wy, wz)
			}
		}
		check(V(px, py, pz))
		step := b.Size().Div(float64(k))
		for i := 0; i <= k; i++ {
			edge := b.Min.Add(step.Mul(float64(i)))
			for _, p := range []Vec{
				edge,
				{math.Nextafter(edge.X, math.Inf(-1)), math.Nextafter(edge.Y, math.Inf(-1)), math.Nextafter(edge.Z, math.Inf(-1))},
				{math.Nextafter(edge.X, math.Inf(1)), math.Nextafter(edge.Y, math.Inf(1)), math.Nextafter(edge.Z, math.Inf(1))},
			} {
				check(p)
			}
		}
	})
}
