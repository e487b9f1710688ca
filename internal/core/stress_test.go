package core

import (
	"math/rand"
	"testing"

	"spaceodyssey/internal/engine"
	"spaceodyssey/internal/geom"
	"spaceodyssey/internal/object"
)

// TestStressAllFeatureInteractions runs a long randomized exploration with
// every optional mechanism enabled at once — level policies beyond
// same-level, segment sharing, adaptive thresholds, and a tight LRU space
// budget — and checks exact result equality against the oracle on every
// query. This is the interaction test that would catch, e.g., a shared
// segment surviving its owner's eviction or a policy producing overlapping
// entries.
func TestStressAllFeatureInteractions(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	for _, policy := range []LevelPolicy{SameLevel, CoarsestCover} {
		policy := policy
		t.Run(policy.String(), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Merger.LevelPolicy = policy
			cfg.Merger.ShareSegments = true
			cfg.Merger.AdaptiveThresholds = true
			cfg.Merger.AdaptEvery = 25
			cfg.Merger.SpaceBudgetPages = 96 // tight: forces eviction churn

			eng, raws, _ := testSetup(t, 5, 2200, 400+int64(policy), cfg)
			oracle := engine.NewNaiveScan(raws)
			r := rand.New(rand.NewSource(500 + int64(policy)))

			hotspots := []geom.Vec{
				geom.V(0.3, 0.3, 0.3), geom.V(0.7, 0.5, 0.4), geom.V(0.5, 0.8, 0.6),
			}
			for i := 0; i < 300; i++ {
				var c geom.Vec
				if r.Intn(4) > 0 { // mostly hot areas, some cold
					h := hotspots[r.Intn(len(hotspots))]
					c = geom.V(h.X+r.NormFloat64()*0.04, h.Y+r.NormFloat64()*0.04, h.Z+r.NormFloat64()*0.04)
				} else {
					c = geom.V(r.Float64(), r.Float64(), r.Float64())
				}
				side := 0.01 + r.Float64()*0.06
				q, ok := geom.Cube(c, side).Clip(geom.UnitBox())
				if !ok || q.Volume() == 0 {
					continue
				}
				k := 1 + r.Intn(5)
				seen := map[object.DatasetID]bool{}
				var dss []object.DatasetID
				for len(dss) < k {
					ds := object.DatasetID(r.Intn(5))
					if !seen[ds] {
						seen[ds] = true
						dss = append(dss, ds)
					}
				}
				got, err := eng.Query(q, dss)
				if err != nil {
					t.Fatalf("query %d: %v", i, err)
				}
				want, err := oracle.Query(q, dss)
				if err != nil {
					t.Fatal(err)
				}
				if !engine.SameObjects(got, want) {
					t.Fatalf("query %d (%v, k=%d): %d objects, oracle %d",
						i, policy, k, len(got), len(want))
				}
				if pages := eng.Merger().TotalPages(); pages > cfg.Merger.SpaceBudgetPages {
					t.Fatalf("query %d: merge space %d over budget", i, pages)
				}
			}
			m := eng.Metrics()
			if m.MergeFilesCreated == 0 {
				t.Error("stress run never merged")
			}
			if m.MergeEvictions == 0 {
				t.Error("tight budget never evicted")
			}
			t.Logf("%s: merged=%d served=%d shared=%d evictions=%d mt=%d refinements=%d",
				policy, m.PartitionsMerged, m.PartitionsFromMerge,
				m.SegmentsShared, m.MergeEvictions, m.CurrentMergeThresh, m.Refinements)
		})
	}
}
