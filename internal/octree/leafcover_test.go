package octree

import (
	"context"
	"testing"

	"spaceodyssey/internal/geom"
)

// deepen refines the tree along a query until some partition reaches at
// least the given level, returning one such leaf.
func deepen(t *testing.T, tree *Tree, level uint32) *Partition {
	t.Helper()
	q := geom.Cube(geom.V(0.3, 0.3, 0.3), 1e-4)
	for i := 0; i < 20; i++ {
		if _, err := queryRefining(tree, q, nil); err != nil {
			t.Fatal(err)
		}
		for _, p := range tree.Lookup(q) {
			if p.Key().Level >= level {
				return p
			}
		}
	}
	t.Fatalf("could not refine to level %d", level)
	return nil
}

func TestLeafCovering(t *testing.T) {
	tree, _, _ := testTree(t, 4000, DefaultConfig(), 41)
	if tree.LeafCovering(Key{Level: 1}) != nil {
		t.Fatal("unbuilt tree returned covering leaf")
	}
	if err := tree.EnsureBuiltCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	// A level-1 key is covered by exactly the leaf at that key.
	leaves := tree.Lookup(tree.Bounds())
	l1 := leaves[0]
	if got := tree.LeafCovering(l1.Key()); got != l1 {
		t.Fatalf("covering of level-1 key = %v", got)
	}
	// A deeper key under an unrefined leaf is covered by that leaf.
	child := l1.Key().Child(tree.FanoutPerDim(), 0, 0, 0)
	if got := tree.LeafCovering(child); got != l1 {
		t.Fatalf("covering of child key = %v, want parent leaf", got)
	}
	// Refine a leaf; its own key is no longer covered by a single leaf
	// deeper than it... but covering of the refined key must now return nil
	// only for keys ABOVE the leaves. The refined cell itself is now
	// internal: LeafCovering returns nil for it.
	deep := deepen(t, tree, 2)
	refinedParent := deep.Key().Ancestor(1, tree.FanoutPerDim())
	if got := tree.LeafCovering(refinedParent); got != nil {
		t.Fatalf("covering of refined internal cell = %v, want nil", got)
	}
}

func TestLeavesUnder(t *testing.T) {
	tree, _, _ := testTree(t, 4000, DefaultConfig(), 44)
	if tree.AppendLeavesUnder(nil, Key{}) != nil {
		t.Fatal("unbuilt tree returned leaves")
	}
	if err := tree.EnsureBuiltCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Under the root: all leaves.
	all := tree.AppendLeavesUnder(nil, Key{})
	if len(all) != tree.NumLeaves() {
		t.Fatalf("LeavesUnder(root) = %d, want %d", len(all), tree.NumLeaves())
	}
	// Refine an area and collect under its level-1 ancestor: counts must
	// equal the original leaf's objects.
	deep := deepen(t, tree, 2)
	anc := deep.Key().Ancestor(1, tree.FanoutPerDim())
	under := tree.AppendLeavesUnder(nil, anc)
	if len(under) < 2 {
		t.Fatalf("refined cell has %d leaves under it", len(under))
	}
	total := 0
	for _, p := range under {
		if !p.IsLeaf() {
			t.Fatal("LeavesUnder returned non-leaf")
		}
		if !anc.AncestorOf(p.Key(), tree.FanoutPerDim()) {
			t.Fatalf("leaf %v not under %v", p.Key(), anc)
		}
		total += p.Count()
	}
	// Under a key deeper than the local tree: nil.
	var coarse *Partition
	for _, p := range tree.Lookup(tree.Bounds()) {
		if p.Key().Level == 1 && p.IsLeaf() {
			coarse = p
			break
		}
	}
	if coarse != nil {
		sub := coarse.Key().Child(tree.FanoutPerDim(), 0, 0, 0)
		if got := tree.AppendLeavesUnder(nil, sub); got != nil {
			t.Fatalf("LeavesUnder below a leaf = %v", got)
		}
	}
}
