package octree

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"

	"spaceodyssey/internal/geom"
)

// TestKeyIsPaddingFree pins the layout that lets a map hash a key as one
// block of memory: its fields fill it, with no padding between them.
func TestKeyIsPaddingFree(t *testing.T) {
	var k Key
	if size, fields := unsafe.Sizeof(k), unsafe.Sizeof(k.Level)+3*unsafe.Sizeof(k.X); size != fields {
		t.Fatalf("Key is %d bytes for %d bytes of fields", size, fields)
	}
}

func TestAncestorOfSelf(t *testing.T) {
	k := Key{Level: 3, X: 5, Y: 6, Z: 7}
	if !k.AncestorOf(k, 4) {
		t.Fatal("key not ancestor of itself")
	}
}

func TestAncestorPanicsBelowLevel(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Ancestor(level > key.Level) did not panic")
		}
	}()
	Key{Level: 1}.Ancestor(2, 4)
}

// Property: for random descent paths, every prefix of the path is an
// ancestor of the final key, and Ancestor() recovers exactly that prefix.
func TestKeyAncestryProperty(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		fanout := []int{2, 3, 4}[r.Intn(3)]
		depth := 1 + r.Intn(6)
		path := make([]Key, depth+1)
		path[0] = Key{}
		for lvl := 1; lvl <= depth; lvl++ {
			path[lvl] = path[lvl-1].Child(fanout,
				r.Intn(fanout), r.Intn(fanout), r.Intn(fanout))
		}
		leaf := path[depth]
		for lvl := 0; lvl <= depth; lvl++ {
			if got := leaf.Ancestor(uint32(lvl), fanout); got != path[lvl] {
				t.Fatalf("fanout=%d: Ancestor(%d) = %v, want %v", fanout, lvl, got, path[lvl])
			}
			if !path[lvl].AncestorOf(leaf, fanout) {
				t.Fatalf("fanout=%d: path[%d] not AncestorOf leaf", fanout, lvl)
			}
		}
		// A sibling at any level is NOT an ancestor.
		if depth >= 1 {
			lvl := 1 + r.Intn(depth)
			sib := path[lvl]
			sib.X ^= 1 // flip to a different cell at the same level
			if sib.AncestorOf(leaf, fanout) && sib != path[lvl] {
				t.Fatalf("fanout=%d: sibling %v claimed ancestry of %v", fanout, sib, leaf)
			}
		}
	}
}

// Property: AncestorOf is antisymmetric for distinct keys and transitive
// along chains.
func TestAncestorOfAntisymmetryProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(2))}
	f := func(lvlA, lvlB uint8, xa, ya, za, xb, yb, zb uint16) bool {
		const fanout = 4
		a := Key{Level: uint32(lvlA % 8), X: uint32(xa) % 64, Y: uint32(ya) % 64, Z: uint32(za) % 64}
		b := Key{Level: uint32(lvlB % 8), X: uint32(xb) % 64, Y: uint32(yb) % 64, Z: uint32(zb) % 64}
		// Clamp coordinates into each level's valid grid.
		clamp := func(k Key) Key {
			max := uint32(pow(fanout, int(k.Level)))
			k.X %= max
			k.Y %= max
			k.Z %= max
			return k
		}
		a, b = clamp(a), clamp(b)
		if a == b {
			return a.AncestorOf(b, fanout) && b.AncestorOf(a, fanout)
		}
		// Distinct keys cannot both be ancestors of each other.
		return !(a.AncestorOf(b, fanout) && b.AncestorOf(a, fanout))
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// cellAt is Box's inverse: the key of the cell of the uniform
// fanout^level grid over bounds that contains point p, false when p lies
// outside bounds or the level's grid exceeds the key coordinate space. The
// bounds' far wall belongs to the last cell.
func cellAt(bounds geom.Box, fanoutPerDim int, level uint32, p geom.Vec) (Key, bool) {
	if !bounds.Intersects(geom.Box{Min: p, Max: p}) {
		return Key{}, false
	}
	cells := math.Pow(float64(fanoutPerDim), float64(level))
	if cells > float64(math.MaxUint32) {
		return Key{}, false
	}
	size := bounds.Size()
	idx := func(lo, sz, v float64) uint32 {
		i := int64((v - lo) / sz * cells)
		if i < 0 {
			i = 0
		}
		if i >= int64(cells) {
			i = int64(cells) - 1
		}
		return uint32(i)
	}
	return Key{
		Level: level,
		X:     idx(bounds.Min.X, size.X, p.X),
		Y:     idx(bounds.Min.Y, size.Y, p.Y),
		Z:     idx(bounds.Min.Z, size.Z, p.Z),
	}, true
}

// TestCellAt pins cellAt's grid arithmetic: the cell of a point at each
// level, the clamped far wall, and the out-of-bounds rejection.
func TestCellAt(t *testing.T) {
	b := geom.UnitBox()
	if k, ok := cellAt(b, 2, 1, geom.V(0.75, 0.2, 0.6)); !ok || k != (Key{Level: 1, X: 1, Y: 0, Z: 1}) {
		t.Fatalf("cellAt level 1 = %v, %v; want {1 1 0 1}", k, ok)
	}
	if k, ok := cellAt(b, 2, 0, geom.V(0.3, 0.9, 0.1)); !ok || k != (Key{}) {
		t.Fatalf("cellAt level 0 = %v, %v; want the root cell", k, ok)
	}
	// The far wall belongs to the last cell, not a phantom one past it.
	if k, ok := cellAt(b, 2, 2, geom.V(1, 1, 1)); !ok || k != (Key{Level: 2, X: 3, Y: 3, Z: 3}) {
		t.Fatalf("cellAt far corner = %v, %v; want the last cell", k, ok)
	}
	if _, ok := cellAt(b, 2, 1, geom.V(1.5, 0, 0)); ok {
		t.Fatal("point outside bounds mapped to a cell")
	}
}

// FuzzKeyAncestor holds the key arithmetic to the geometry it names, for
// fanouts 2-4 and levels up to 10, in two exploration volumes: a key is its
// own ancestor at its level, and its child's; AncestorOf(a, b) holds exactly
// when a's box contains b's; and cellAt maps the center of a key's box back
// to the key. b is a descendant of a (depth > 0) or any key.
func FuzzKeyAncestor(f *testing.F) {
	f.Add(uint8(0), uint8(3), uint32(5), uint32(6), uint32(7), uint8(1), uint8(0), uint8(1), uint8(2), uint8(5), uint32(9), uint32(4), uint32(11), false)
	f.Add(uint8(2), uint8(10), uint32(1<<19), uint32(3), uint32(1<<20-1), uint8(3), uint8(3), uint8(0), uint8(0), uint8(10), uint32(1<<19), uint32(3), uint32(1<<20-1), true)
	f.Add(uint8(1), uint8(0), uint32(0), uint32(0), uint32(0), uint8(2), uint8(1), uint8(0), uint8(3), uint8(4), uint32(80), uint32(1), uint32(26), true)
	f.Fuzz(func(t *testing.T, fSel, level uint8, x, y, z uint32, cx, cy, cz, depth, bLevel uint8, bx, by, bz uint32, skewed bool) {
		fanout := 2 + int(fSel%3)
		bounds := geom.UnitBox()
		if skewed {
			bounds = geom.Box{Min: geom.V(-1.3, 0.1, 7), Max: geom.V(2.9, 0.7, 1e3/3.0)}
		}
		keyAt := func(level uint32, x, y, z uint32) Key {
			side := uint32(pow(fanout, int(level)))
			return Key{Level: level, X: x % side, Y: y % side, Z: z % side}
		}
		a := keyAt(uint32(level%11), x, y, z)
		if got := a.Ancestor(a.Level, fanout); got != a {
			t.Fatalf("%v.Ancestor(own level) = %v", a, got)
		}
		child := a.Child(fanout, int(cx)%fanout, int(cy)%fanout, int(cz)%fanout)
		if got := child.Ancestor(a.Level, fanout); got != a {
			t.Fatalf("child %v of %v has ancestor %v at its level", child, a, got)
		}
		if got, ok := cellAt(bounds, fanout, a.Level, a.Box(bounds, fanout).Center()); !ok || got != a {
			t.Fatalf("cellAt the center of %v's box = %v, %v (fanout %d, bounds %v)", a, got, ok, fanout, bounds)
		}
		b := keyAt(uint32(bLevel%11), bx, by, bz)
		if d := int(depth % 4); d > 0 && int(a.Level)+d <= 10 {
			b = a
			for i := 0; i < d; i++ {
				b = b.Child(fanout, int(bx)%fanout, int(by)%fanout, int(bz)%fanout)
				bx, by, bz = bx/uint32(fanout), by/uint32(fanout), bz/uint32(fanout)
			}
		}
		// Cell walls are computed per level, so a descendant's wall may land
		// an ulp outside its ancestor's: containment is judged to a thousandth
		// of the smaller cell.
		contains := func(outer, inner Key) bool {
			ib := inner.Box(bounds, fanout)
			s := ib.Size()
			grown := outer.Box(bounds, fanout).Expand(geom.Splat(min(s.X, s.Y, s.Z) / 1000))
			return grown.Union(ib) == grown
		}
		for _, p := range [][2]Key{{a, b}, {b, a}} {
			if got, want := p[0].AncestorOf(p[1], fanout), contains(p[0], p[1]); got != want {
				t.Fatalf("%v.AncestorOf(%v) = %v, but box containment says %v (fanout %d)", p[0], p[1], got, want, fanout)
			}
		}
	})
}

func TestPow(t *testing.T) {
	cases := map[[2]int]int{
		{2, 0}: 1, {2, 3}: 8, {4, 2}: 16, {3, 3}: 27, {10, 1}: 10,
	}
	for in, want := range cases {
		if got := pow(in[0], in[1]); got != want {
			t.Errorf("pow(%d,%d) = %d, want %d", in[0], in[1], got, want)
		}
	}
}
