package octree

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"spaceodyssey/internal/datagen"
	"spaceodyssey/internal/geom"
	"spaceodyssey/internal/rawfile"
	"spaceodyssey/internal/simdisk"
)

// referenceLeaves is the walk Lookup replaced, kept as its specification: it
// box-tests every child of every internal node.
func referenceLeaves(out []*Partition, p *Partition, area geom.Box) []*Partition {
	if !p.box.Intersects(area) {
		return out
	}
	if p.IsLeaf() {
		return append(out, p)
	}
	for i := range p.children {
		out = referenceLeaves(out, &p.children[i], area)
	}
	return out
}

// walkTree builds a tree over bounds and refines it unevenly: around a few
// scattered objects, one at each extreme corner included, down to levels 3
// and 4.
func walkTree(t *testing.T, bounds geom.Box, ppl int, seed int64) *Tree {
	t.Helper()
	dev := simdisk.NewDeviceChannels(simdisk.CostModel{}, 0, 1)
	objs := datagen.Generate(datagen.Config{Seed: seed, NumObjects: 3000, Clusters: 5, Bounds: bounds, ObjectSizeFrac: 1e-5}, 1)
	objs[0].Center, objs[1].Center = bounds.Min, bounds.Max
	raw, err := rawfile.Write(dev, "walk", 1, objs)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := New(dev, raw, bounds, Config{PartitionsPerLevel: ppl})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := tree.EnsureBuiltCtx(ctx); err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(seed))
	for _, level := range []float64{3, 4} {
		// A query this small refines every populated cell it hits above
		// level, and none at it.
		qVol := bounds.Volume() / math.Pow(float64(ppl), level-0.5) / tree.cfg.RefinementThreshold
		at := []geom.Vec{bounds.Min, bounds.Max}
		for i := 0; i < 6; i++ {
			at = append(at, objs[r.Intn(len(objs))].Center)
		}
		for _, c := range at {
			for step := true; step; {
				if _, step, err = tree.RefineRegionStep(ctx, Key{}, geom.Box{Min: c, Max: c}, qVol); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return tree
}

// adversarialBoxes are the windows the candidate-child arithmetic could get
// wrong: faces exactly on cell faces of every level, boxes without volume,
// boxes partly or wholly outside the bounds, the bounds themselves, and
// boxes no caller should build — inverted, infinite.
func adversarialBoxes(tree *Tree) []geom.Box {
	b := tree.bounds
	size := b.Size()
	inf := math.Inf(1)
	boxes := []geom.Box{
		b,
		b.Expand(size),
		{Min: b.Min.Sub(size), Max: b.Min},      // touches the low corner from outside
		{Min: b.Max, Max: b.Max.Add(size)},      // touches the high corner from outside
		{Min: b.Min.Sub(size), Max: b.Center()}, // half outside
		{Min: b.Max.Add(size), Max: b.Max.Add(size.Mul(2))}, // wholly outside
		{Min: b.Max, Max: b.Min},                            // inverted, spanning the bounds
		{Min: b.Center().Add(size.Mul(0.1)), Max: b.Center().Sub(size.Mul(0.1))},
		{Min: geom.V(-inf, -inf, -inf), Max: geom.V(inf, inf, inf)},
		{Min: geom.V(-inf, b.Min.Y, b.Min.Z), Max: b.Center()},
		{Min: b.Center(), Max: geom.V(inf, inf, inf)},
	}
	var nodes func(p *Partition)
	nodes = func(p *Partition) {
		lo, hi := p.box.Min, p.box.Max
		boxes = append(boxes,
			p.box,
			geom.Box{Min: lo, Max: lo}, // the corners, as points
			geom.Box{Min: hi, Max: hi},
			geom.Box{Min: hi, Max: hi.Add(p.box.Size())},     // the cell diagonally above, sharing a corner
			geom.Box{Min: lo.Sub(p.box.Size()), Max: lo},     // and below
			geom.Box{Min: geom.V(hi.X, lo.Y, lo.Z), Max: hi}, // the high x face, as a plane
			geom.Box{Min: lo, Max: geom.V(hi.X, hi.Y, lo.Z)}, // the low z face
			geom.Box{Min: hi, Max: lo},                       // inverted
		)
		for i := range p.children {
			nodes(&p.children[i])
		}
	}
	nodes(tree.root)
	return boxes
}

// TestLookupIsTheExhaustiveWalk pins the candidate-child walk to the walk it
// replaced: on unevenly refined trees of three fanouts, over bounds whose
// cell faces are and are not exact in floating point, Lookup returns exactly
// the leaves, in exactly the order, of the walk that tests every child.
func TestLookupIsTheExhaustiveWalk(t *testing.T) {
	skewed := geom.Box{Min: geom.V(-1.3, 0.1, 7), Max: geom.V(2.9, 0.7, 1e3/3.0)}
	for _, bounds := range []geom.Box{geom.UnitBox(), skewed} {
		for _, ppl := range []int{8, 27, 64} {
			tree := walkTree(t, bounds, ppl, int64(ppl))
			depth := uint32(0)
			for _, p := range tree.Lookup(bounds) {
				depth = max(depth, p.key.Level)
			}
			if depth < 3 {
				t.Fatalf("ppl %d: tree only %d deep", ppl, depth)
			}
			boxes := adversarialBoxes(tree)
			r := rand.New(rand.NewSource(int64(ppl) + 100))
			size := bounds.Size()
			for i := 0; i < 3000; i++ {
				// Centers a little outside the bounds too; sides log-uniform
				// from a deep cell's to the whole volume's.
				c := bounds.Min.Add(geom.V(size.X*(1.2*r.Float64()-0.1), size.Y*(1.2*r.Float64()-0.1), size.Z*(1.2*r.Float64()-0.1)))
				h := size.Mul(0.5 * math.Pow(10, -4*r.Float64()))
				boxes = append(boxes, geom.Box{Min: c.Sub(h), Max: c.Add(h)})
			}
			var want []*Partition
			for _, area := range boxes {
				want = referenceLeaves(want[:0], tree.root, area)
				if got := tree.Lookup(area); !slices.Equal(got, want) {
					t.Fatalf("ppl %d, bounds %v, window %v: Lookup found %d leaves, the exhaustive walk %d (or another order)",
						ppl, bounds, area, len(got), len(want))
				}
			}
		}
	}
}

// TestLookupVisitsCandidateChildrenOnly pins what the walk saves: for a
// window inside one leaf below level 2 — so inside one child of every node
// above it — no internal node has a child box-tested beyond the 27 (of 64)
// that hold the window or neighbour the cell that does. The children away
// from the window are given boxes that would pass the test: a walk that
// enters one returns it. (Spared: the children along each axis from the
// node's first, whose boxes the walk reads the spans from.)
func TestLookupVisitsCandidateChildrenOnly(t *testing.T) {
	tree := walkTree(t, geom.UnitBox(), 64, 7)
	k := tree.k
	var deep *Partition
	for _, p := range tree.Lookup(tree.bounds) {
		if p.key.Level >= 3 {
			deep = p
			break
		}
	}
	if deep == nil {
		t.Fatal("no leaf below level 2")
	}
	quarter := deep.box.Size().Mul(0.25)
	window := geom.Box{Min: deep.box.Min.Add(quarter), Max: deep.box.Max.Sub(quarter)}
	away := func(a, b int) bool { return a-b > 1 || b-a > 1 }
	internal, decoys := 0, map[*Partition]bool{}
	var plant func(p *Partition)
	plant = func(p *Partition) {
		if p.IsLeaf() || !p.box.Intersects(window) {
			return
		}
		internal++
		g := p.box.Grid(k)
		ix, iy, iz := g.Cell(window.Center())
		for ci := range p.children {
			c := &p.children[ci]
			cx, cy, cz := ci%k, ci/k%k, ci/(k*k)
			switch onAxes := min(cx, cy)+min(cy, cz)+min(cx, cz) == 0; {
			case !away(cx, ix) && !away(cy, iy) && !away(cz, iz):
				plant(c)
			case !onAxes:
				c.box, c.children = window, nil
				decoys[c] = true
			}
		}
	}
	plant(tree.root)
	if internal < 3 || len(decoys) < 3*(k*k*k-27-10) {
		t.Fatalf("%d decoys under %d internal nodes; the window should descend through levels 0, 1 and 2", len(decoys), internal)
	}
	found := 0
	for _, p := range referenceLeaves(nil, tree.root, window) {
		if decoys[p] {
			found++
		}
	}
	if found != len(decoys) {
		t.Fatalf("the exhaustive walk entered %d of the %d decoys; the test is broken", found, len(decoys))
	}
	for _, p := range tree.Lookup(window) {
		if decoys[p] {
			t.Fatalf("Lookup box-tested child %v, away from the window", p.key)
		}
	}
}

// TestLookupAllocatesOnlyItsResult: the walk is closure-free, so a Lookup
// costs the growth of the slice it returns and a walk into scratch with room
// costs nothing.
func TestLookupAllocatesOnlyItsResult(t *testing.T) {
	tree := walkTree(t, geom.UnitBox(), 64, 7)
	window := geom.Cube(geom.V(0.4, 0.4, 0.4), 0.3)
	scratch := tree.Lookup(window)
	if len(scratch) < 2 {
		t.Fatalf("window hits %d leaves", len(scratch))
	}
	if n := testing.AllocsPerRun(100, func() {
		scratch = tree.appendLeaves(scratch[:0], tree.root, window)
	}); n != 0 {
		t.Fatalf("a walk into scratch with room allocates %v times, want 0", n)
	}
}
