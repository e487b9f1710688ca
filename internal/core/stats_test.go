package core

import (
	"context"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"spaceodyssey/internal/geom"
	"spaceodyssey/internal/object"
	"spaceodyssey/internal/octree"
)

// testCombo returns a fresh record of the combination of dss, interned
// nowhere.
func testCombo(dss ...object.DatasetID) *combo {
	members := slices.Compact(slices.Sorted(slices.Values(dss)))
	return &combo{key: KeyOf(members), members: members}
}

// recordOf returns eng's record of the combination of dss, interning it as a
// query of dss would.
func recordOf(eng *Odyssey, dss ...object.DatasetID) *combo {
	c := testCombo(dss...)
	eng.statsMu.Lock()
	defer eng.statsMu.Unlock()
	if old := eng.combos[c.key]; old != nil {
		return old
	}
	eng.combos[c.key] = c
	return c
}

func TestCollectorCounts(t *testing.T) {
	eng, _, _ := testSetup(t, 3, 500, 3, DefaultConfig())
	q := geom.Cube(geom.V(0.5, 0.5, 0.5), 0.05)
	for _, dss := range [][]object.DatasetID{{2, 0}, {0, 2}, {0, 2, 0}, {1}} {
		if _, err := eng.Query(q, dss); err != nil {
			t.Fatal(err)
		}
	}
	if len(eng.combos) != 2 {
		t.Fatalf("%d records, want one per distinct combination: 2", len(eng.combos))
	}
	pair, single := eng.combos[KeyOf([]object.DatasetID{0, 2})], eng.combos["1"]
	if pair == nil || single == nil || pair.count != 3 || single.count != 1 {
		t.Fatalf("records %+v and %+v, want counts 3 and 1", pair, single)
	}
	if !slices.Equal(pair.members, []object.DatasetID{0, 2}) {
		t.Fatalf("members %v, want the sorted combination", pair.members)
	}
	if recordOf(eng, 2, 0) != pair {
		t.Fatal("a combination has two records")
	}
}

func TestCollectorPartitionsDeduplicated(t *testing.T) {
	c := testCombo(0, 1, 2)
	a := octree.Key{Level: 1, X: 1}
	b := octree.Key{Level: 2, X: 5, Y: 3}
	c.addParts([]octree.Key{b, a})
	c.addParts([]octree.Key{a}) // duplicate
	got := c.partitions()
	if len(got) != 2 {
		t.Fatalf("partitions = %v", got)
	}
	// Deterministic order: level first.
	if got[0] != a || got[1] != b {
		t.Fatalf("order = %v", got)
	}
}

func TestCollectorPartitionsOrderDeterministic(t *testing.T) {
	keys := make([]octree.Key, 50)
	r := rand.New(rand.NewSource(1))
	for i := range keys {
		keys[i] = octree.Key{
			Level: uint32(r.Intn(4)),
			X:     uint32(r.Intn(16)), Y: uint32(r.Intn(16)), Z: uint32(r.Intn(16)),
		}
	}
	c1, c2 := testCombo(1), testCombo(1)
	c1.addParts(keys)
	rev := slices.Clone(keys)
	slices.Reverse(rev)
	c2.addParts(rev)
	a, b := c1.partitions(), c2.partitions()
	if !slices.Equal(a, b) {
		t.Fatalf("order depends on insertion: %v vs %v", a, b)
	}
	if !slices.IsSortedFunc(a, compareKeys) {
		t.Fatalf("not in (level, z, y, x) order: %v", a)
	}
}

func TestCollectorReset(t *testing.T) {
	c := testCombo(3, 4, 5)
	c.count = 2
	c.addParts([]octree.Key{{Level: 1}})
	c.futile = futileMark{set: true, candidates: 1, epoch: 7}
	c.forget()
	if c.count != 0 || len(c.partitions()) != 0 || c.futile.set {
		t.Fatalf("forget left %+v", c)
	}
	if c.key != "3,4,5" || len(c.members) != 3 {
		t.Fatal("forget touched the combination's identity")
	}
	c.forget() // forgetting a forgotten record is a no-op
}

// TestEvictionForgetsTheCombination evicts a combination's merge file on
// both paths — the space budget, enforced by another combination's merge
// step, and a repair's dropMergeFile — and checks that the record is reset
// in place: the combination's next query counts 1, its partition set holds
// only that query's leaves, it has no futility mark, and the merge task
// queued for it before the eviction stays queued exactly once.
func TestEvictionForgetsTheCombination(t *testing.T) {
	ctx := context.Background()
	a, b := []object.DatasetID{0, 1, 2}, []object.DatasetID{1, 2, 3}
	wide := geom.NewBox(geom.V(0.3, 0.3, 0.3), geom.V(0.7, 0.7, 0.7))
	small := geom.Cube(geom.V(0.125, 0.125, 0.125), 0.02)
	other := geom.Cube(geom.V(0.875, 0.875, 0.875), 0.02)
	for _, path := range []string{"budget", "repair"} {
		t.Run(path, func(t *testing.T) {
			eng, _, _ := testSetup(t, 4, 2000, 29, asyncConfig(1))
			defer eng.Close()
			eng.maint.SetPaused(true) // the test runs every merge step itself
			query := func(q geom.Box, dss []object.DatasetID) {
				t.Helper()
				if _, err := eng.Query(q, dss); err != nil {
					t.Fatal(err)
				}
			}
			step := func(dss []object.DatasetID) {
				t.Helper()
				if err := eng.mergeStep(ctx, recordOf(eng, dss...)); err != nil {
					t.Fatal(err)
				}
			}
			// a crosses mt, which queues its merge task; the first step
			// merges its cells and the second finds nothing left: a futility
			// mark.
			query(wide, a)
			query(wide, a)
			step(a)
			step(a)
			rec := recordOf(eng, a...)
			eng.statsMu.Lock()
			if rec.count != 2 || !rec.futile.set {
				t.Fatalf("before the eviction: count %d, futility mark %v; want 2 and a mark", rec.count, rec.futile.set)
			}
			eng.statsMu.Unlock()
			if eng.merger.file(rec.key) == nil {
				t.Fatal("the combination was not merged")
			}

			switch path {
			case "budget":
				// b's second step extends its file past a budget of what both
				// files held: the least recently used, a's, goes.
				query(small, b)
				query(small, b)
				step(b)
				eng.merger.cfg.SpaceBudgetPages = eng.merger.TotalPages()
				query(other, b)
				step(b)
				if eng.merger.file(KeyOf(b)) == nil {
					t.Fatal("the budget evicted the file it was extending")
				}
			case "repair":
				if err := eng.dropMergeFile(rec.key); err != nil {
					t.Fatal(err)
				}
			}
			if eng.merger.file(rec.key) != nil {
				t.Fatalf("%s: the combination's merge file survived", path)
			}

			query(other, a)
			want := map[octree.Key]struct{}{}
			for _, ds := range a {
				tree := eng.Tree(ds)
				for _, p := range tree.Lookup(other.Expand(tree.MaxExtent())) {
					want[p.Key()] = struct{}{}
				}
			}
			if recordOf(eng, a...) != rec {
				t.Fatal("the eviction replaced the combination's record")
			}
			eng.statsMu.Lock()
			if rec.count != 1 {
				t.Errorf("the next query counts %d, want 1", rec.count)
			}
			if !maps.Equal(rec.parts, want) {
				t.Errorf("the partition set holds %d keys, want the %d leaves of the next query", len(rec.parts), len(want))
			}
			if rec.futile.set {
				t.Error("the futility mark survived the eviction")
			}
			eng.statsMu.Unlock()

			// The task queued before the eviction is still the one queued: a
			// new demand coalesces with it.
			eng.maint.EnqueueMerge(rec)
			eng.maint.mu.Lock()
			defer eng.maint.mu.Unlock()
			queued := 0
			for _, it := range eng.maint.mergeQ {
				if it.task == rec {
					queued++
					if rec.mergeItem != it || it.heat != 2 {
						t.Errorf("the queued task has heat %d (item on the record: %v), want the one item, demanded twice", it.heat, rec.mergeItem == it)
					}
				}
			}
			if queued != 1 {
				t.Errorf("the combination's merge task is queued %d times, want 1", queued)
			}
		})
	}
}

func TestKeyOfEmptyAndSingle(t *testing.T) {
	if KeyOf(nil) != "" {
		t.Errorf("KeyOf(nil) = %q", KeyOf(nil))
	}
	if KeyOf([]object.DatasetID{7}) != "7" {
		t.Errorf("single = %q", KeyOf([]object.DatasetID{7}))
	}
	// KeyOf must not mutate its argument.
	in := []object.DatasetID{3, 1, 2}
	KeyOf(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Error("KeyOf mutated input")
	}
}

// TestRecordLeavesOutWhatItsOwnFileServes pins which touched leaves a query
// adds to its combination's partition set: not those its combination's own
// merge file serves, which a merge step would skip as covered, but every
// leaf a superset's file serves. A triple is queried until its merge file
// serves every leaf the window touches; with its set emptied, one more query
// of it records nothing, and a query of a pair inside it, routed to the
// triple's file, records every leaf that file serves it. Both keep
// Metrics' meaning: every leaf comes from the merge file, none from a tree.
func TestRecordLeavesOutWhatItsOwnFileServes(t *testing.T) {
	eng, _, _ := testSetup(t, 3, 8000, 61, DefaultConfig())
	q := geom.Cube(geom.V(0.5, 0.5, 0.5), 0.2)
	triple, pair := []object.DatasetID{0, 1, 2}, []object.DatasetID{0, 1}
	ask := func(dss []object.DatasetID) (fromTree, fromMerge int) {
		t.Helper()
		before := eng.Metrics()
		if _, err := eng.Query(q, dss); err != nil {
			t.Fatal(err)
		}
		after := eng.Metrics()
		return after.PartitionsFromTree - before.PartitionsFromTree, after.PartitionsFromMerge - before.PartitionsFromMerge
	}
	for i := 0; ; i++ {
		epoch := eng.layoutEpoch.Load()
		fromTree, _ := ask(triple)
		if eng.layoutEpoch.Load() == epoch && fromTree == 0 && eng.merger.file(KeyOf(triple)) != nil {
			break
		}
		if i == 40 {
			t.Fatal("the triple's merge file does not serve the window after 40 queries")
		}
	}
	own := eng.combos[KeyOf(triple)]
	eng.statsMu.Lock()
	own.parts = nil
	eng.statsMu.Unlock()
	if fromTree, fromMerge := ask(triple); fromTree != 0 || fromMerge == 0 || len(own.parts) != 0 {
		t.Fatalf("a query its own merge file serves read %d leaves from trees and %d segments, and recorded %d leaves; want 0, some and 0",
			fromTree, fromMerge, len(own.parts))
	}

	if mf, rel := eng.merger.route(KeyOf(pair), pair); rel != RelSuperset || mf != eng.merger.file(KeyOf(triple)) {
		t.Fatalf("the pair routes %v to %v; want the triple's file as a superset", rel, mf)
	}
	fromTree, fromMerge := ask(pair)
	sup := eng.combos[KeyOf(pair)]
	if fromTree != 0 || fromMerge == 0 || len(sup.parts) == 0 {
		t.Fatalf("a query a superset's file serves read %d leaves from trees and %d segments, and recorded %d leaves; want 0, some and some",
			fromTree, fromMerge, len(sup.parts))
	}
	for key := range sup.parts {
		if !eng.merger.file(KeyOf(triple)).covers(key, eng.trees[0].FanoutPerDim()) {
			t.Fatalf("the pair recorded %v, which the triple's file does not serve", key)
		}
	}
}
