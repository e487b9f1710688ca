package octree

import (
	"context"
	"math/rand"
	"testing"

	"spaceodyssey/internal/datagen"
	"spaceodyssey/internal/geom"
	"spaceodyssey/internal/object"
	"spaceodyssey/internal/rawfile"
	"spaceodyssey/internal/simdisk"
)

// testTree builds a tree over a synthetic dataset.
func testTree(t *testing.T, n int, cfg Config, seed int64) (*Tree, *rawfile.Raw, *simdisk.Device) {
	t.Helper()
	dev := simdisk.NewDevice(simdisk.CostModel{}, 0)
	objs := datagen.Generate(datagen.Config{
		Seed: seed, NumObjects: n, Clusters: 5,
	}, 1)
	raw, err := rawfile.Write(dev, "ds1", 1, objs)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := New(dev, raw, geom.UnitBox(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tree, raw, dev
}

// queryRefining is the query the sync engine runs against one tree: build
// level 0 on first use, then a refining walk into a fresh result.
func queryRefining(tree *Tree, q geom.Box, serveFromStore func(*Partition) bool) (QueryResult, error) {
	if err := tree.EnsureBuiltCtx(context.Background()); err != nil {
		return QueryResult{}, err
	}
	return tree.QueryIntoCtx(context.Background(), nil, nil, q, serveFromStore, true)
}

func TestConfigValidation(t *testing.T) {
	dev := simdisk.NewDevice(simdisk.CostModel{}, 0)
	raw, err := rawfile.Write(dev, "d", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(dev, raw, geom.UnitBox(), Config{PartitionsPerLevel: 10}); err == nil {
		t.Error("ppl=10 accepted (not a cube)")
	}
	if _, err := New(dev, raw, geom.UnitBox(), Config{PartitionsPerLevel: 1}); err == nil {
		t.Error("ppl=1 accepted")
	}
	if _, err := New(dev, raw, geom.Box{}, DefaultConfig()); err == nil {
		t.Error("zero-volume bounds accepted")
	}
	for _, ppl := range []int{8, 27, 64, 125} {
		if _, err := New(dev, raw, geom.UnitBox(), Config{PartitionsPerLevel: ppl}); err != nil {
			t.Errorf("ppl=%d rejected: %v", ppl, err)
		}
	}
}

func TestLazyBuild(t *testing.T) {
	tree, _, dev := testTree(t, 1000, DefaultConfig(), 1)
	dev.ResetStats()
	if tree.Built() {
		t.Fatal("tree built before first use")
	}
	if got := tree.Lookup(geom.UnitBox()); got != nil {
		t.Fatal("Lookup on unbuilt tree returned partitions")
	}
	if st := dev.Stats(); st.PageReads != 0 {
		t.Fatal("unbuilt tree performed I/O")
	}
	if err := tree.EnsureBuiltCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !tree.Built() || tree.NumObjects() != 1000 {
		t.Fatalf("built=%v objects=%d", tree.Built(), tree.NumObjects())
	}
	if tree.NumLeaves() != 64 {
		t.Fatalf("level-0 leaves = %d, want ppl=64", tree.NumLeaves())
	}
	// Idempotent.
	dev.ResetStats()
	if err := tree.EnsureBuiltCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := dev.Stats(); st.PageReads != 0 || st.PageWrites != 0 {
		t.Fatal("second EnsureBuilt performed I/O")
	}
}

// leafInvariants checks that leaves tile the bounds, are disjoint, and
// together hold exactly the tree's objects.
func leafInvariants(t *testing.T, tree *Tree) {
	t.Helper()
	leaves := tree.Lookup(tree.Bounds())
	var vol float64
	total := 0
	seen := make(map[uint64]int)
	for _, p := range leaves {
		if !p.IsLeaf() {
			t.Fatal("Lookup returned non-leaf")
		}
		vol += p.Box().Volume()
		total += p.Count()
		objs, err := tree.ReadPartitionIntoCtx(context.Background(), nil, p)
		if err != nil {
			t.Fatal(err)
		}
		if len(objs) != p.Count() {
			t.Fatalf("partition %v count %d but stores %d", p.Key(), p.Count(), len(objs))
		}
		for _, o := range objs {
			seen[o.ID]++
			if !p.Box().ContainsPointHalfOpen(o.Center) && !onUpperBoundary(o.Center, p.Box(), tree.Bounds()) {
				t.Fatalf("object %d center %v outside its partition %v", o.ID, o.Center, p.Box())
			}
		}
	}
	if total != tree.NumObjects() {
		t.Fatalf("leaves hold %d objects, tree has %d", total, tree.NumObjects())
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("object %d stored %d times", id, n)
		}
	}
	if b := tree.Bounds().Volume(); vol < b*(1-1e-9) || vol > b*(1+1e-9) {
		t.Fatalf("leaf volumes sum to %g, bounds volume %g", vol, b)
	}
	if len(leaves) != tree.NumLeaves() {
		t.Fatalf("Lookup found %d leaves, NumLeaves=%d", len(leaves), tree.NumLeaves())
	}
}

// onUpperBoundary allows centers sitting exactly on the global upper faces,
// which CellIndex clamps into the last cell.
func onUpperBoundary(p geom.Vec, cell, bounds geom.Box) bool {
	return (p.X == bounds.Max.X && cell.Max.X == bounds.Max.X) ||
		(p.Y == bounds.Max.Y && cell.Max.Y == bounds.Max.Y) ||
		(p.Z == bounds.Max.Z && cell.Max.Z == bounds.Max.Z)
}

func TestLevel0Invariants(t *testing.T) {
	tree, _, _ := testTree(t, 3000, DefaultConfig(), 2)
	if err := tree.EnsureBuiltCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	leafInvariants(t, tree)
}

func TestQueryMatchesNaiveScan(t *testing.T) {
	tree, raw, _ := testTree(t, 5000, DefaultConfig(), 3)
	r := rand.New(rand.NewSource(4))
	for trial := 0; trial < 60; trial++ {
		side := 0.02 + r.Float64()*0.2
		c := geom.V(r.Float64(), r.Float64(), r.Float64())
		q, ok := geom.Cube(c, side).Clip(geom.UnitBox())
		if !ok {
			continue
		}
		res, err := queryRefining(tree, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		var want []object.Object
		if err := raw.ScanRange(context.Background(), q, func(o object.Object) error {
			want = append(want, o)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		got := append([]object.Object(nil), res.Objects...)
		if !sameObjects(got, want) {
			t.Fatalf("trial %d: query %v returned %d objects, naive %d",
				trial, q, len(res.Objects), len(want))
		}
	}
	// After refinement storms the invariants must still hold.
	leafInvariants(t, tree)
}

func sameObjects(a, b []object.Object) bool {
	if len(a) != len(b) {
		return false
	}
	m := make(map[object.Object]int, len(a))
	for _, o := range a {
		m[o]++
	}
	for _, o := range b {
		m[o]--
		if m[o] < 0 {
			return false
		}
	}
	return true
}

func TestRefinementOneLevelPerQuery(t *testing.T) {
	cfg := DefaultConfig()
	tree, _, _ := testTree(t, 4000, cfg, 5)
	q := geom.Cube(geom.V(0.5, 0.5, 0.5), 0.01)

	// First query builds level 0, then refines the hit partitions once.
	res, err := queryRefining(tree, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !tree.Built() {
		t.Fatal("query did not build")
	}
	first := tree.Refinements
	if res.Refined != first {
		t.Fatalf("result.Refined=%d, tree.Refinements=%d", res.Refined, first)
	}

	// The same query again refines at most one more level of the hit cells.
	prevLeaves := tree.NumLeaves()
	res2, err := queryRefining(tree, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Refined > 8 { // a tiny query touches at most 2^3 partitions
		t.Fatalf("second query refined %d partitions", res2.Refined)
	}
	grown := tree.NumLeaves() - prevLeaves
	if grown > res2.Refined*64 {
		t.Fatalf("leaves grew by %d after %d refinements", grown, res2.Refined)
	}
}

func TestRefinementConverges(t *testing.T) {
	cfg := DefaultConfig()
	tree, _, _ := testTree(t, 5000, cfg, 6)
	q := geom.Cube(geom.V(0.25, 0.25, 0.25), 0.02)
	var last int
	for i := 0; i < 12; i++ {
		res, err := queryRefining(tree, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		last = res.Refined
	}
	if last != 0 {
		t.Fatalf("still refining after 12 identical queries (refined=%d)", last)
	}
	// Converged partitions obey the rt rule.
	ext := q.Expand(tree.MaxExtent())
	for _, p := range tree.Lookup(ext) {
		if tree.NeedsRefinement(p, q.Volume()) {
			t.Fatalf("partition %v still needs refinement after convergence", p.Key())
		}
	}
	leafInvariants(t, tree)
}

func TestConvergenceMatchesTargetLevels(t *testing.T) {
	cfg := DefaultConfig() // rt=4, ppl=64
	tree, _, _ := testTree(t, 20000, cfg, 7)
	if err := tree.EnsureBuiltCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	vp := 1.0 / 64 // level-1 partition volume over the unit box
	vq := 1e-5
	want := tree.TargetLevels(vp, vq)
	// log_64((1/64)/(1e-5*4)) = log_64(390) ≈ 1.43 → 2 levels.
	if want != 2 {
		t.Fatalf("TargetLevels = %d, want 2", want)
	}
	q := geom.Cube(geom.V(0.3, 0.3, 0.3), cbrt(vq))
	hits := 0
	for ; hits < 20; hits++ {
		res, err := queryRefining(tree, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Refined == 0 && hits > 0 {
			break
		}
	}
	if hits > want+1 {
		t.Fatalf("converged after %d queries, equation predicts %d", hits, want)
	}
}

func cbrt(v float64) float64 {
	s := 1.0
	for i := 0; i < 80; i++ {
		s = s - (s*s*s-v)/(3*s*s)
	}
	return s
}

func TestTargetLevelsEdges(t *testing.T) {
	tree, _, _ := testTree(t, 10, DefaultConfig(), 8)
	if got := tree.TargetLevels(0, 1); got != 0 {
		t.Errorf("TargetLevels(0,1) = %d", got)
	}
	if got := tree.TargetLevels(1, 0); got != 0 {
		t.Errorf("TargetLevels(1,0) = %d", got)
	}
	if got := tree.TargetLevels(1, 1); got != 0 {
		t.Errorf("TargetLevels(1,1) = %d (ratio <= 1)", got)
	}
	if got := tree.TargetLevels(64, 1.0/4); got != 1 {
		t.Errorf("TargetLevels(64, 0.25) = %d, want 1", got)
	}
}

func TestEmptyPartitionsNeverRefine(t *testing.T) {
	// A dataset confined to one octant leaves other cells empty; queries
	// into empty space must not refine anything.
	dev := simdisk.NewDevice(simdisk.CostModel{}, 0)
	objs := datagen.Generate(datagen.Config{
		Seed: 9, NumObjects: 500,
		Bounds:         geom.NewBox(geom.V(0, 0, 0), geom.V(0.1, 0.1, 0.1)),
		BackgroundFrac: -1,
	}, 1)
	raw, err := rawfile.Write(dev, "d", 1, objs)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := New(dev, raw, geom.UnitBox(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	q := geom.Cube(geom.V(0.9, 0.9, 0.9), 0.01)
	for i := 0; i < 3; i++ {
		res, err := queryRefining(tree, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Objects) != 0 {
			t.Fatal("objects found in empty space")
		}
		if res.Refined != 0 {
			t.Fatal("empty partition was refined")
		}
	}
}

func TestMaxDepthBoundsRefinement(t *testing.T) {
	cfg := Config{RefinementThreshold: 4, PartitionsPerLevel: 8, MaxDepth: 2}
	tree, _, _ := testTree(t, 2000, cfg, 10)
	q := geom.Cube(geom.V(0.5, 0.5, 0.5), 1e-4)
	for i := 0; i < 10; i++ {
		if _, err := queryRefining(tree, q, nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range tree.Lookup(tree.Bounds()) {
		if int(p.Key().Level) > 2 {
			t.Fatalf("partition at level %d exceeds MaxDepth 2", p.Key().Level)
		}
	}
}

func TestInPlaceReuseBoundsFileGrowth(t *testing.T) {
	tree, raw, _ := testTree(t, 5000, DefaultConfig(), 11)
	if err := tree.EnsureBuiltCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	after0, err := tree.File().NumPages()
	if err != nil {
		t.Fatal(err)
	}
	// Drive many refinements.
	r := rand.New(rand.NewSource(12))
	for i := 0; i < 40; i++ {
		c := geom.V(r.Float64(), r.Float64(), r.Float64())
		q, ok := geom.Cube(c, 0.01).Clip(geom.UnitBox())
		if !ok {
			continue
		}
		if _, err := queryRefining(tree, q, nil); err != nil {
			t.Fatal(err)
		}
	}
	afterN, err := tree.File().NumPages()
	if err != nil {
		t.Fatal(err)
	}
	// Data pages needed: one page can be wasted per non-empty leaf, but
	// growth must stay within a small multiple of the raw size thanks to
	// page reuse (without reuse it would grow per refinement).
	if afterN > after0*6 {
		t.Fatalf("file grew from %d to %d pages despite in-place reuse", after0, afterN)
	}
	if tree.Refinements == 0 {
		t.Fatal("no refinements happened; growth test vacuous")
	}
	_ = raw
}

func TestLeafAt(t *testing.T) {
	tree, _, _ := testTree(t, 3000, DefaultConfig(), 13)
	if tree.LeafAt(Key{Level: 1}) != nil {
		t.Fatal("LeafAt on unbuilt tree returned partition")
	}
	if err := tree.EnsureBuiltCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Every level-1 cell is a leaf right after build.
	leaves := tree.Lookup(tree.Bounds())
	for _, p := range leaves {
		got := tree.LeafAt(p.Key())
		if got != p {
			t.Fatalf("LeafAt(%v) = %v", p.Key(), got)
		}
	}
	// Root key is never a leaf.
	if tree.LeafAt(Key{}) != nil {
		t.Fatal("LeafAt(root) returned partition")
	}
	// Descend one level via a query, then the old key is internal and the
	// child key is a leaf.
	target := leaves[0]
	for tree.LeafAt(target.Key()) != nil {
		q, ok := geom.Cube(target.Box().Center(), target.Box().LongestSide()/100).Clip(tree.Bounds())
		if !ok {
			t.Fatal("query construction failed")
		}
		if _, err := queryRefining(tree, q, nil); err != nil {
			t.Fatal(err)
		}
		if target.Count() == 0 {
			break // empty partitions never refine; cannot descend here
		}
	}
	if target.Count() > 0 {
		if tree.LeafAt(target.Key()) != nil {
			t.Fatal("refined key still reported as leaf")
		}
		child := target.children[0]
		if tree.LeafAt(child.Key()) != child {
			t.Fatal("child key not found as leaf")
		}
		// A key deeper than the tree returns nil.
		deep := child.Key().Child(tree.FanoutPerDim(), 0, 0, 0)
		if tree.LeafAt(deep) != nil {
			t.Fatal("over-deep key reported as leaf")
		}
	}
}

func TestServeFromStoreHookSkipsReads(t *testing.T) {
	tree, _, dev := testTree(t, 3000, DefaultConfig(), 14)
	q := geom.Cube(geom.V(0.5, 0.5, 0.5), 0.05)
	if _, err := queryRefining(tree, q, nil); err != nil {
		t.Fatal(err)
	}
	// Serve everything from the (imaginary) store: no reads, no objects.
	dev.ResetStats()
	res, err := queryRefining(tree, q, func(*Partition) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Objects) != 0 {
		t.Fatal("hook did not suppress object reads")
	}
	if res.Refined != 0 {
		t.Fatal("hook did not suppress refinement")
	}
	if len(res.Touched) == 0 {
		t.Fatal("touched partitions not reported")
	}
	if st := dev.Stats(); st.PageReads != 0 {
		t.Fatalf("device saw %d reads despite hook", st.PageReads)
	}
}

func TestKeysShareGeometryAcrossTrees(t *testing.T) {
	// Two trees over the same bounds must agree on keys and boxes.
	dev := simdisk.NewDevice(simdisk.CostModel{}, 0)
	mk := func(ds object.DatasetID, seed int64) *Tree {
		objs := datagen.Generate(datagen.Config{Seed: seed, NumObjects: 2000}, ds)
		raw, err := rawfile.Write(dev, "d", ds, objs)
		if err != nil {
			t.Fatal(err)
		}
		tree, err := New(dev, raw, geom.UnitBox(), DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := tree.EnsureBuiltCtx(context.Background()); err != nil {
			t.Fatal(err)
		}
		return tree
	}
	a := mk(1, 100)
	b := mk(2, 200)
	q := geom.Cube(geom.V(0.7, 0.2, 0.4), 0.01)
	if _, err := queryRefining(a, q, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := queryRefining(b, q, nil); err != nil {
		t.Fatal(err)
	}
	// Boxes for equal keys must be identical.
	boxes := map[Key]geom.Box{}
	for _, p := range a.Lookup(geom.UnitBox()) {
		boxes[p.Key()] = p.Box()
	}
	matched := 0
	for _, p := range b.Lookup(geom.UnitBox()) {
		if box, ok := boxes[p.Key()]; ok {
			matched++
			if box != p.Box() {
				t.Fatalf("key %v has box %v in tree a, %v in tree b", p.Key(), box, p.Box())
			}
		}
	}
	if matched == 0 {
		t.Fatal("no shared keys between trees over identical bounds")
	}
}

func TestKeyChild(t *testing.T) {
	root := Key{}
	c := root.Child(4, 1, 2, 3)
	if c != (Key{Level: 1, X: 1, Y: 2, Z: 3}) {
		t.Fatalf("Child = %+v", c)
	}
	g := c.Child(4, 3, 0, 1)
	if g != (Key{Level: 2, X: 7, Y: 8, Z: 13}) {
		t.Fatalf("grandchild = %+v", g)
	}
}

func TestRefineNonLeafFails(t *testing.T) {
	tree, _, _ := testTree(t, 2000, DefaultConfig(), 15)
	q := geom.Cube(geom.V(0.5, 0.5, 0.5), 0.01)
	if _, err := queryRefining(tree, q, nil); err != nil {
		t.Fatal(err)
	}
	// Find a refined partition.
	var refined *Partition
	var findInternal func(p *Partition)
	findInternal = func(p *Partition) {
		if p.IsLeaf() || refined != nil {
			return
		}
		if p.Key().Level > 0 {
			refined = p
			return
		}
		for _, c := range p.children {
			findInternal(c)
		}
	}
	findInternal(tree.root)
	if refined == nil {
		t.Skip("no refined partition produced")
	}
	if _, err := tree.refineCtx(context.Background(), refined, new([]object.Object)); err == nil {
		t.Fatal("refining a non-leaf succeeded")
	}
}

// Property: random query workloads never violate the structural invariants.
func TestRandomWorkloadInvariantsProperty(t *testing.T) {
	for _, ppl := range []int{8, 64} {
		cfg := Config{RefinementThreshold: 4, PartitionsPerLevel: ppl, MaxDepth: 6}
		tree, _, _ := testTree(t, 4000, cfg, int64(16+ppl))
		r := rand.New(rand.NewSource(int64(17 + ppl)))
		for i := 0; i < 50; i++ {
			side := 0.005 + r.Float64()*0.1
			c := geom.V(r.Float64(), r.Float64(), r.Float64())
			q, ok := geom.Cube(c, side).Clip(geom.UnitBox())
			if !ok || q.Volume() == 0 {
				continue
			}
			if _, err := queryRefining(tree, q, nil); err != nil {
				t.Fatal(err)
			}
		}
		leafInvariants(t, tree)
	}
}
