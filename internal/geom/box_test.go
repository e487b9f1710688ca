package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randBox returns a valid random box inside [-scale, scale]^3.
func randBox(r *rand.Rand, scale float64) Box {
	a := V(r.Float64()*2*scale-scale, r.Float64()*2*scale-scale, r.Float64()*2*scale-scale)
	b := V(r.Float64()*2*scale-scale, r.Float64()*2*scale-scale, r.Float64()*2*scale-scale)
	return Box{Min: a.Min(b), Max: a.Max(b)}
}

func TestNewBoxPanicsOnInverted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewBox with min > max did not panic")
		}
	}()
	NewBox(V(1, 0, 0), V(0, 1, 1))
}

func TestBoxBasics(t *testing.T) {
	b := NewBox(V(0, 0, 0), V(2, 4, 6))
	if got := b.Center(); got != V(1, 2, 3) {
		t.Errorf("Center = %v", got)
	}
	if got := b.Size(); got != V(2, 4, 6) {
		t.Errorf("Size = %v", got)
	}
	if got := b.HalfExtent(); got != V(1, 2, 3) {
		t.Errorf("HalfExtent = %v", got)
	}
	if got := b.Volume(); got != 48 {
		t.Errorf("Volume = %v", got)
	}
	if got := b.LongestSide(); got != 6 {
		t.Errorf("LongestSide = %v", got)
	}
	if !b.Valid() {
		t.Error("valid box reported invalid")
	}
}

func TestBoxFromCenterAndCube(t *testing.T) {
	b := BoxFromCenter(V(1, 1, 1), V(0.5, 1, 1.5))
	if b.Min != V(0.5, 0, -0.5) || b.Max != V(1.5, 2, 2.5) {
		t.Errorf("BoxFromCenter = %v", b)
	}
	c := Cube(V(0, 0, 0), 2)
	if c.Min != V(-1, -1, -1) || c.Max != V(1, 1, 1) {
		t.Errorf("Cube = %v", c)
	}
}

func TestBoxIntersects(t *testing.T) {
	a := NewBox(V(0, 0, 0), V(1, 1, 1))
	cases := []struct {
		b    Box
		want bool
	}{
		{NewBox(V(0.5, 0.5, 0.5), V(2, 2, 2)), true},
		{NewBox(V(1, 1, 1), V(2, 2, 2)), true},    // touching corner
		{NewBox(V(1.1, 0, 0), V(2, 1, 1)), false}, // separated in x
		{NewBox(V(0, 1.1, 0), V(1, 2, 1)), false}, // separated in y
		{NewBox(V(0, 0, 1.1), V(1, 1, 2)), false}, // separated in z
		{a, true}, // self
	}
	for i, c := range cases {
		if got := a.Intersects(c.b); got != c.want {
			t.Errorf("case %d: Intersects = %v, want %v", i, got, c.want)
		}
		if got := c.b.Intersects(a); got != c.want {
			t.Errorf("case %d: Intersects not symmetric", i)
		}
	}
}

func TestBoxContains(t *testing.T) {
	a := NewBox(V(0, 0, 0), V(2, 2, 2))
	if !a.Contains(NewBox(V(0.5, 0.5, 0.5), V(1, 1, 1))) {
		t.Error("Contains inner box = false")
	}
	if !a.Contains(a) {
		t.Error("Contains self = false")
	}
	if a.Contains(NewBox(V(1, 1, 1), V(3, 2, 2))) {
		t.Error("Contains overflowing box = true")
	}
	if !a.ContainsPoint(V(2, 2, 2)) {
		t.Error("closed ContainsPoint boundary = false")
	}
	if a.ContainsPointHalfOpen(V(2, 2, 2)) {
		t.Error("half-open ContainsPoint max corner = true")
	}
	if !a.ContainsPointHalfOpen(V(0, 0, 0)) {
		t.Error("half-open ContainsPoint min corner = false")
	}
}

func TestBoxIntersectionUnion(t *testing.T) {
	a := NewBox(V(0, 0, 0), V(2, 2, 2))
	b := NewBox(V(1, 1, 1), V(3, 3, 3))
	got, ok := a.Intersection(b)
	if !ok || got.Min != V(1, 1, 1) || got.Max != V(2, 2, 2) {
		t.Errorf("Intersection = %v ok=%v", got, ok)
	}
	if _, ok := a.Intersection(NewBox(V(5, 5, 5), V(6, 6, 6))); ok {
		t.Error("disjoint Intersection ok = true")
	}
	u := a.Union(b)
	if u.Min != V(0, 0, 0) || u.Max != V(3, 3, 3) {
		t.Errorf("Union = %v", u)
	}
}

func TestBoxExpand(t *testing.T) {
	b := NewBox(V(0, 0, 0), V(1, 1, 1)).Expand(V(0.5, 1, 0))
	if b.Min != V(-0.5, -1, 0) || b.Max != V(1.5, 2, 1) {
		t.Errorf("Expand = %v", b)
	}
}

// subdivision lists b's k^3 subdivision cell by cell, x fastest.
func subdivision(b Box, k int) []Box {
	var out []Box
	for z := 0; z < k; z++ {
		for y := 0; y < k; y++ {
			for x := 0; x < k; x++ {
				out = append(out, b.Cell(k, x, y, z))
			}
		}
	}
	return out
}

// TestBoxCellsTile: the cells of a k^3 subdivision lie inside the box, their
// volumes sum to its volume, and the outer faces are the box's own.
func TestBoxCellsTile(t *testing.T) {
	b := NewBox(V(0, 0, 0), V(3, 3, 3))
	for _, k := range []int{1, 2, 3, 4} {
		cells := subdivision(b, k)
		var vol float64
		for _, c := range cells {
			if !b.Contains(c) {
				t.Errorf("k=%d: cell %v outside parent", k, c)
			}
			vol += c.Volume()
		}
		if math.Abs(vol-b.Volume()) > 1e-9 {
			t.Errorf("k=%d: cell volumes sum to %v, want %v", k, vol, b.Volume())
		}
		// Outer faces snapped exactly.
		if cells[0].Min != b.Min {
			t.Errorf("k=%d: first cell min %v != box min", k, cells[0].Min)
		}
		if cells[len(cells)-1].Max != b.Max {
			t.Errorf("k=%d: last cell max %v != box max", k, cells[len(cells)-1].Max)
		}
	}
}

func TestBoxCellIndex(t *testing.T) {
	g := NewBox(V(0, 0, 0), V(10, 10, 10)).Grid(5)
	ix, iy, iz := g.Cell(V(0, 5, 9.999))
	if ix != 0 || iy != 2 || iz != 4 {
		t.Errorf("Grid(5).Cell = (%d,%d,%d)", ix, iy, iz)
	}
	// Boundary max clamps into the last cell.
	ix, iy, iz = g.Cell(V(10, 10, 10))
	if ix != 4 || iy != 4 || iz != 4 {
		t.Errorf("Grid(5).Cell at max = (%d,%d,%d)", ix, iy, iz)
	}
	// Below-min clamps to 0.
	ix, _, _ = g.Cell(V(-1, 0, 0))
	if ix != 0 {
		t.Errorf("Grid(5).Cell below min = %d", ix)
	}
}

// Property: every point of a k^3 subdivision belongs (half-open) to exactly
// the cell Grid(k).Cell names, and to no other cell.
func TestCellCellIndexAgreeProperty(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	b := NewBox(V(-5, -5, -5), V(7, 9, 11))
	for _, k := range []int{1, 2, 4} {
		cells, g := subdivision(b, k), b.Grid(k)
		for trial := 0; trial < 300; trial++ {
			p := V(
				b.Min.X+r.Float64()*b.Size().X,
				b.Min.Y+r.Float64()*b.Size().Y,
				b.Min.Z+r.Float64()*b.Size().Z,
			)
			ix, iy, iz := g.Cell(p)
			idx := (iz*k+iy)*k + ix
			count := 0
			for _, c := range cells {
				if c.ContainsPointHalfOpen(p) {
					count++
				}
			}
			// Points exactly on inner boundaries belong to 1 cell; points on
			// the outer max faces belong to 0 under half-open semantics but
			// Cell still clamps them into the last cell.
			if count > 1 {
				t.Fatalf("k=%d: point %v in %d cells", k, p, count)
			}
			if count == 1 && !cells[idx].ContainsPointHalfOpen(p) {
				t.Fatalf("k=%d: Grid cell %d does not contain %v", k, idx, p)
			}
		}
	}
}

// Property: Intersection is commutative and contained in both operands;
// Union contains both operands.
func TestBoxIntersectionUnionProperty(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	f := func() bool {
		a, b := randBox(r, 10), randBox(r, 10)
		u := a.Union(b)
		if !u.Contains(a) || !u.Contains(b) {
			return false
		}
		i1, ok1 := a.Intersection(b)
		i2, ok2 := b.Intersection(a)
		if ok1 != ok2 {
			return false
		}
		if ok1 {
			return i1 == i2 && a.Contains(i1) && b.Contains(i1)
		}
		return !a.Intersects(b)
	}
	for trial := 0; trial < 1000; trial++ {
		if !f() {
			t.Fatalf("property violated on trial %d", trial)
		}
	}
}

// Property: Intersects is equivalent to Intersection returning ok.
func TestIntersectsMatchesIntersectionProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 1000, Rand: rand.New(rand.NewSource(5))}
	f := func(ax, ay, az, bx, by, bz, cx, cy, cz, dx, dy, dz float64) bool {
		clamp := func(v float64) float64 { return math.Mod(v, 100) }
		p1 := V(clamp(ax), clamp(ay), clamp(az))
		p2 := V(clamp(bx), clamp(by), clamp(bz))
		p3 := V(clamp(cx), clamp(cy), clamp(cz))
		p4 := V(clamp(dx), clamp(dy), clamp(dz))
		if !p1.Finite() || !p2.Finite() || !p3.Finite() || !p4.Finite() {
			return true
		}
		a := Box{Min: p1.Min(p2), Max: p1.Max(p2)}
		b := Box{Min: p3.Min(p4), Max: p3.Max(p4)}
		_, ok := a.Intersection(b)
		return ok == a.Intersects(b)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: the query-window extension is sound — if an object's box
// intersects query q, then the object's center lies inside q extended by the
// object's half extent.
func TestQueryWindowExtensionSoundProperty(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	for trial := 0; trial < 2000; trial++ {
		q := randBox(r, 10)
		center := V(r.Float64()*20-10, r.Float64()*20-10, r.Float64()*20-10)
		he := V(r.Float64(), r.Float64(), r.Float64())
		obj := BoxFromCenter(center, he)
		if obj.Intersects(q) && !q.Expand(he).ContainsPoint(center) {
			t.Fatalf("extension unsound: q=%v obj=%v", q, obj)
		}
	}
}
