package core

import (
	"context"
	"testing"

	"spaceodyssey/internal/geom"
	"spaceodyssey/internal/object"
	"spaceodyssey/internal/octree"
	"spaceodyssey/internal/simdisk"
)

func TestRelationString(t *testing.T) {
	want := map[Relation]string{
		RelNone: "none", RelExact: "exact", RelSuperset: "superset", RelSubset: "subset",
	}
	for r, s := range want {
		if r.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(r), r.String(), s)
		}
	}
	if Relation(9).String() != "Relation(9)" {
		t.Error("unknown relation name wrong")
	}
}

func TestMergerDefaults(t *testing.T) {
	dev := simdisk.NewDeviceChannels(simdisk.CostModel{}, 0, 1)
	m := NewMerger(dev, MergerConfig{})
	if m.cfg.MergeThreshold != 2 || m.cfg.MinCombination != 3 {
		t.Fatalf("defaults = %+v", m.cfg)
	}
	if m.NumFiles() != 0 || m.TotalPages() != 0 {
		t.Fatal("fresh merger not empty")
	}
}

// mkMergeFile registers a fake merge file directly for routing tests.
func mkMergeFile(m *Merger, dev *simdisk.Device, datasets ...object.DatasetID) *MergeFile {
	memberOf := make(map[object.DatasetID]bool)
	for _, ds := range datasets {
		memberOf[ds] = true
	}
	mf := &MergeFile{combo: testCombo(datasets...), memberOf: memberOf, entries: make(map[scanKey]segment)}
	m.dir()[mf.combo.key] = mf
	return mf
}

// routeOf routes a query of datasets, as the engine does.
func routeOf(m *Merger, datasets ...object.DatasetID) (*MergeFile, Relation) {
	return m.route(KeyOf(datasets), datasets)
}

func TestLookupPriorities(t *testing.T) {
	dev := simdisk.NewDeviceChannels(simdisk.CostModel{}, 0, 1)
	m := NewMerger(dev, MergerConfig{})

	// No files: none.
	if mf, rel := routeOf(m, 1, 2, 3); mf != nil || rel != RelNone {
		t.Fatalf("empty lookup = %v %v", mf, rel)
	}

	big := mkMergeFile(m, dev, 0, 1, 2, 3, 4) // superset of {1,2,3}
	small := mkMergeFile(m, dev, 1, 2, 3, 4)  // smaller superset
	sub2 := mkMergeFile(m, dev, 1, 2)         // subset, 2 members
	sub3 := mkMergeFile(m, dev, 1, 2, 5)      // overlapping but neither
	exact := mkMergeFile(m, dev, 1, 2, 3)     // exact
	_ = big
	_ = sub3

	// Exact wins.
	if mf, rel := routeOf(m, 3, 2, 1); mf != exact || rel != RelExact {
		t.Fatalf("exact lookup = %v %v", mf.Combo(), rel)
	}

	// Remove exact: smallest superset wins.
	delete(m.dir(), exact.combo.key)
	if mf, rel := routeOf(m, 1, 2, 3); mf != small || rel != RelSuperset {
		t.Fatalf("superset lookup = %v %v", mf.Combo(), rel)
	}

	// Remove supersets: largest subset wins ({1,2} is the only subset;
	// {1,2,5} is not a subset because 5 is not requested).
	delete(m.dir(), small.combo.key)
	delete(m.dir(), big.combo.key)
	if mf, rel := routeOf(m, 1, 2, 3); mf != sub2 || rel != RelSubset {
		t.Fatalf("subset lookup = %v %v", mf, rel)
	}

	// Only the partial-overlap file left: none (paper describes only the
	// exact/superset/subset cases).
	delete(m.dir(), sub2.combo.key)
	if mf, rel := routeOf(m, 1, 2, 3); mf != nil || rel != RelNone {
		t.Fatalf("overlap lookup = %v %v", mf, rel)
	}
}

func TestLookupPrefersLargerSubset(t *testing.T) {
	dev := simdisk.NewDeviceChannels(simdisk.CostModel{}, 0, 1)
	m := NewMerger(dev, MergerConfig{})
	mkMergeFile(m, dev, 1, 2)
	sub3 := mkMergeFile(m, dev, 1, 2, 3)
	mf, rel := routeOf(m, 1, 2, 3, 4)
	if mf != sub3 || rel != RelSubset {
		t.Fatalf("lookup = %v %v, want larger subset", mf, rel)
	}
}

// TestLookupBreaksTiesByLowestKey pins deterministic routing: among equally
// small supersets (or equally large subsets) the lowest ComboKey wins,
// whatever order the directory map happens to iterate in — 200 fresh mergers
// see 200 fresh map layouts.
func TestLookupBreaksTiesByLowestKey(t *testing.T) {
	dev := simdisk.NewDeviceChannels(simdisk.CostModel{}, 0, 1)
	for i := 0; i < 200; i++ {
		m := NewMerger(dev, MergerConfig{})
		mkMergeFile(m, dev, 1, 2, 3, 6)
		mkMergeFile(m, dev, 1, 2, 3, 4)
		mkMergeFile(m, dev, 1, 2, 3, 5)
		if mf, rel := routeOf(m, 1, 2, 3); rel != RelSuperset || mf.Combo() != "1,2,3,4" {
			t.Fatalf("merger %d: superset lookup = %s (%v), want 1,2,3,4", i, mf.Combo(), rel)
		}
		m = NewMerger(dev, MergerConfig{})
		mkMergeFile(m, dev, 2, 3)
		mkMergeFile(m, dev, 1, 3)
		mkMergeFile(m, dev, 1, 2)
		if mf, rel := m.LookupNoTouch([]object.DatasetID{1, 2, 3}); rel != RelSubset || mf.Combo() != "1,2" {
			t.Fatalf("merger %d: subset lookup = %s (%v), want 1,2", i, mf.Combo(), rel)
		}
	}
}

func TestMergeStageRespectsMinCombination(t *testing.T) {
	dev := simdisk.NewDeviceChannels(simdisk.CostModel{}, 0, 1)
	m := NewMerger(dev, MergerConfig{MinCombination: 3})
	st, err := m.stage(context.Background(), testCombo(1, 2), []octree.Key{{Level: 1}}, nil)
	if err != nil {
		t.Fatalf("stage: %v", err)
	}
	if n := m.publish(st, false); n != 0 {
		t.Fatalf("small combination merged: n=%d", n)
	}
	if m.NumFiles() != 0 {
		t.Fatal("merge file created for |C|<3")
	}
}

func TestEntryBox(t *testing.T) {
	bounds := geom.NewBox(geom.V(0, 0, 0), geom.V(8, 8, 8))
	// Level 1 with fanout 2: cell (1,0,1) spans [4,0,4]..[8,4,8].
	b := EntryBox(bounds, octree.Key{Level: 1, X: 1, Y: 0, Z: 1}, 2)
	if b.Min != geom.V(4, 0, 4) || b.Max != geom.V(8, 4, 8) {
		t.Fatalf("EntryBox = %v", b)
	}
	// Level 0 = the whole bounds.
	if got := EntryBox(bounds, octree.Key{}, 2); got != bounds {
		t.Fatalf("root EntryBox = %v", got)
	}
	// Level 2 with fanout 4: 16 cells per dim, each side 0.5.
	b = EntryBox(bounds, octree.Key{Level: 2, X: 15, Y: 15, Z: 15}, 4)
	if b.Max != geom.V(8, 8, 8) || b.Min != geom.V(7.5, 7.5, 7.5) {
		t.Fatalf("deep EntryBox = %v", b)
	}
}

func TestReadSegmentErrors(t *testing.T) {
	dev := simdisk.NewDeviceChannels(simdisk.CostModel{}, 0, 1)
	m := NewMerger(dev, MergerConfig{})
	mf := mkMergeFile(m, dev, 1, 2, 3)
	if _, err := m.ReadSegmentCtx(context.Background(), nil, mf, octree.Key{Level: 1}, 1); err == nil {
		t.Fatal("missing entry accepted")
	}
	mf.entries[scanKey{ds: 2, cell: octree.Key{Level: 1}}] = segment{}
	if _, err := m.ReadSegmentCtx(context.Background(), nil, mf, octree.Key{Level: 1}, 1); err == nil {
		t.Fatal("another dataset's segment of the cell answered")
	}
}

func TestEnforceBudgetNoBudget(t *testing.T) {
	dev := simdisk.NewDeviceChannels(simdisk.CostModel{}, 0, 1)
	m := NewMerger(dev, MergerConfig{})
	evicted, err := m.EnforceBudget()
	if err != nil || evicted != nil {
		t.Fatalf("unlimited budget evicted %v, %v", evicted, err)
	}
}
