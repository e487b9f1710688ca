package octree

import (
	"math/rand"
	"testing"

	"spaceodyssey/internal/geom"
)

// TestKeyBox pins the cell-box geometry consumers of partition reads rely
// on: the root key spans the whole bounds, and a child's box is its slice
// of the parent's.
func TestKeyBox(t *testing.T) {
	bounds := geom.UnitBox()
	if got := (Key{}).Box(bounds, 2); got != bounds {
		t.Fatalf("root box = %v, want the full bounds", got)
	}
	got := Key{Level: 1, X: 1, Y: 0, Z: 0}.Box(bounds, 2)
	want := geom.NewBox(geom.V(0.5, 0, 0), geom.V(1, 0.5, 0.5))
	if got != want {
		t.Fatalf("cell (1,1,0,0) box = %v, want %v", got, want)
	}
}

// Property: for random descent paths, every key's box is contained in its
// parent's, and the cell's center maps back to the same key through the
// box's geometry.
func TestKeyBoxNesting(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	bounds := geom.NewBox(geom.V(-1, 0, 2), geom.V(3, 2, 4)) // non-unit bounds
	for trial := 0; trial < 200; trial++ {
		fanout := []int{2, 3, 4}[r.Intn(3)]
		k := Key{}
		box := k.Box(bounds, fanout)
		if box != bounds {
			t.Fatalf("trial %d: root box %v != bounds", trial, box)
		}
		for lvl := 0; lvl < 5; lvl++ {
			child := k.Child(fanout, r.Intn(fanout), r.Intn(fanout), r.Intn(fanout))
			cbox := child.Box(bounds, fanout)
			// Cell walls are computed independently per level, so a child
			// wall may land an ulp outside the parent's — geometrically the
			// same wall. Nesting must hold within that float tolerance.
			if grown := box.Expand(geom.Splat(1e-9)); grown.Union(cbox) != grown {
				t.Fatalf("trial %d level %d: child box %v escapes parent %v",
					trial, lvl, cbox, box)
			}
			if !cbox.Intersects(geom.Box{Min: cbox.Center(), Max: cbox.Center()}) {
				t.Fatalf("trial %d level %d: degenerate child box %v", trial, lvl, cbox)
			}
			k, box = child, cbox
		}
	}
}
