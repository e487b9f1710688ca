package core

import (
	"testing"

	"spaceodyssey/internal/engine"
	"spaceodyssey/internal/geom"
	"spaceodyssey/internal/object"
)

// driveOverlappingCombos queries two combinations sharing datasets {0,1,2}
// in the same hot area so their merge files cover the same partitions.
func driveOverlappingCombos(t *testing.T, eng *Odyssey) {
	t.Helper()
	q := geom.Cube(geom.V(0.45, 0.45, 0.45), 0.05)
	a := []object.DatasetID{0, 1, 2}
	b := []object.DatasetID{0, 1, 2, 3}
	for i := 0; i < 3; i++ {
		if _, err := eng.Query(q, a); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Query(q, b); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSegmentSharingSavesSpace(t *testing.T) {
	mk := func(share bool) (*Odyssey, int64) {
		cfg := DefaultConfig()
		cfg.Merger.ShareSegments = share
		eng, _, _ := testSetup(t, 4, 2500, 31, cfg)
		driveOverlappingCombos(t, eng)
		return eng, eng.Merger().TotalPages()
	}
	engPlain, plainPages := mk(false)
	engShared, sharedPages := mk(true)
	if engPlain.Merger().NumFiles() < 2 || engShared.Merger().NumFiles() < 2 {
		t.Skip("workload did not produce two merge files")
	}
	if engShared.Merger().SegmentsShared == 0 {
		t.Fatal("no segments were shared despite overlapping combinations")
	}
	if sharedPages >= plainPages {
		t.Fatalf("sharing used %d pages, plain %d", sharedPages, plainPages)
	}
}

func TestSegmentSharingResultsExact(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Merger.ShareSegments = true
	eng, raws, _ := testSetup(t, 4, 2500, 32, cfg)
	oracle := engine.NewNaiveScan(raws)
	driveOverlappingCombos(t, eng)
	q := geom.Cube(geom.V(0.45, 0.45, 0.45), 0.05)
	for _, dss := range [][]object.DatasetID{{0, 1, 2}, {0, 1, 2, 3}, {1, 2}} {
		got, err := eng.Query(q, dss)
		if err != nil {
			t.Fatal(err)
		}
		want, err := oracle.Query(q, dss)
		if err != nil {
			t.Fatal(err)
		}
		if !engine.SameObjects(got, want) {
			t.Fatalf("dss=%v: %d objects, oracle %d", dss, len(got), len(want))
		}
	}
}

func TestSharedSegmentOwnerEvictionInvalidatesReferences(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Merger.ShareSegments = true
	eng, raws, _ := testSetup(t, 4, 2500, 33, cfg)
	oracle := engine.NewNaiveScan(raws)
	driveOverlappingCombos(t, eng)
	m := eng.Merger()
	if m.SegmentsShared == 0 {
		t.Skip("no sharing happened for this layout")
	}
	// Evict every owner file by slamming the budget to (almost) zero.
	m.cfg.SpaceBudgetPages = 1
	evicted, err := m.EnforceBudget()
	if err != nil {
		t.Fatal(err)
	}
	if len(evicted) == 0 {
		t.Fatal("nothing evicted under 1-page budget")
	}
	for _, combo := range evicted {
		eng.Stats().Reset(combo)
	}
	m.cfg.SpaceBudgetPages = 0 // lift the budget again

	// No surviving entry may reference an evicted file, and queries must
	// still be exact.
	for _, f := range m.dir() {
		for ref, seg := range f.entries {
			if seg.sharedFrom == "" {
				continue
			}
			if _, live := m.dir()[seg.sharedFrom]; !live {
				t.Fatalf("entry %v ds %d references evicted file %s", ref.cell, ref.ds, seg.sharedFrom)
			}
		}
		// An entry goes whole: every cell left has a segment of every member.
		cells := f.EntryKeys()
		for _, cell := range cells {
			for _, ds := range f.members {
				if _, ok := f.entries[scanKey{ds: ds, cell: cell}]; !ok {
					t.Fatalf("entry %v of %s lost the segment of ds %d", cell, f.combo, ds)
				}
			}
		}
		if len(f.entries) != len(cells)*len(f.members) {
			t.Fatalf("merge file %s holds %d segments for %d entries of %d members", f.combo, len(f.entries), len(cells), len(f.members))
		}
	}
	q := geom.Cube(geom.V(0.45, 0.45, 0.45), 0.05)
	got, err := eng.Query(q, []object.DatasetID{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracle.Query(q, []object.DatasetID{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !engine.SameObjects(got, want) {
		t.Fatalf("post-eviction query wrong: %d vs %d", len(got), len(want))
	}
}

func TestAdaptiveThresholdRaisesOnLowReuse(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Merger.AdaptiveThresholds = true
	cfg.Merger.AdaptEvery = 10
	eng, _, _ := testSetup(t, 6, 2000, 34, cfg)
	if eng.Merger().Threshold() != 2 {
		t.Fatalf("initial mt = %d", eng.Merger().Threshold())
	}
	// Scattered queries over many distinct 3-combinations: each combo hits
	// mt=2 (merging happens) but merged areas are never revisited — reuse
	// stays low, so the threshold must rise.
	combos := [][]object.DatasetID{
		{0, 1, 2}, {1, 2, 3}, {2, 3, 4}, {3, 4, 5}, {0, 2, 4}, {1, 3, 5},
		{0, 3, 5}, {0, 1, 4}, {1, 2, 5}, {2, 4, 5},
	}
	for i := 0; i < 80; i++ {
		f := float64(i%40)/40*0.8 + 0.1
		q, ok := geom.Cube(geom.V(f, f, f), 0.04).Clip(geom.UnitBox())
		if !ok {
			continue
		}
		if _, err := eng.Query(q, combos[i%len(combos)]); err != nil {
			t.Fatal(err)
		}
	}
	m := eng.Merger()
	if m.Threshold() <= 2 {
		t.Fatalf("threshold did not rise under low reuse: mt=%d raises=%d",
			m.Threshold(), m.ThresholdRaises)
	}
	if m.Threshold() > m.cfg.MaxMergeThreshold {
		t.Fatalf("threshold %d exceeds bound %d", m.Threshold(), m.cfg.MaxMergeThreshold)
	}
}

func TestAdaptiveThresholdRecoversOnHighReuse(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Merger.AdaptiveThresholds = true
	cfg.Merger.AdaptEvery = 10
	eng, _, _ := testSetup(t, 3, 2000, 35, cfg)
	m := eng.Merger()
	// Force the threshold up, then hammer one hot combination; reuse soars
	// and the threshold must come back down to the configured floor.
	m.currentMT = 6
	q := geom.Cube(geom.V(0.5, 0.5, 0.5), 0.05)
	dss := []object.DatasetID{0, 1, 2}
	for i := 0; i < 120; i++ {
		if _, err := eng.Query(q, dss); err != nil {
			t.Fatal(err)
		}
	}
	if m.Threshold() >= 6 {
		t.Fatalf("threshold did not drop under high reuse: mt=%d drops=%d",
			m.Threshold(), m.ThresholdDrops)
	}
	if m.Threshold() < cfg.Merger.MergeThreshold {
		t.Fatalf("threshold %d fell below floor %d", m.Threshold(), cfg.Merger.MergeThreshold)
	}
}

func TestAdaptiveDisabledKeepsThreshold(t *testing.T) {
	eng, _, _ := testSetup(t, 3, 500, 36, DefaultConfig())
	q := geom.Cube(geom.V(0.5, 0.5, 0.5), 0.05)
	for i := 0; i < 60; i++ {
		if _, err := eng.Query(q, []object.DatasetID{0, 1, 2}); err != nil {
			t.Fatal(err)
		}
	}
	if eng.Merger().Threshold() != 2 {
		t.Fatalf("threshold moved without adaptation: %d", eng.Merger().Threshold())
	}
}
