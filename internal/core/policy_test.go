package core

import (
	"context"
	"math/rand"
	"testing"

	"spaceodyssey/internal/engine"
	"spaceodyssey/internal/geom"
	"spaceodyssey/internal/object"
	"spaceodyssey/internal/octree"
)

func TestLevelPolicyString(t *testing.T) {
	want := map[LevelPolicy]string{
		SameLevel: "same-level", CoarsestCover: "coarsest-cover",
	}
	for p, s := range want {
		if p.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(p), p.String(), s)
		}
	}
	if LevelPolicy(9).String() != "LevelPolicy(9)" {
		t.Error("unknown policy name wrong")
	}
}

// divergeTrees queries dataset 0 alone so its tree refines deeper than the
// others in the hot area, then returns the 3-dataset combination query.
func divergeTrees(t *testing.T, eng *Odyssey, q geom.Box) {
	t.Helper()
	for i := 0; i < 4; i++ {
		if _, err := eng.Query(q, []object.DatasetID{0}); err != nil {
			t.Fatal(err)
		}
	}
}

// policyOracleCheck runs a randomized workload under the given policy and
// compares every result against the naive oracle.
func policyOracleCheck(t *testing.T, policy LevelPolicy, seed int64) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Merger.LevelPolicy = policy
	eng, raws, _ := testSetup(t, 4, 2000, seed, cfg)
	oracle := engine.NewNaiveScan(raws)
	r := rand.New(rand.NewSource(seed + 1))
	hot := geom.V(0.4, 0.4, 0.4)
	for trial := 0; trial < 60; trial++ {
		var c geom.Vec
		if r.Intn(3) > 0 {
			c = geom.V(hot.X+r.NormFloat64()*0.03, hot.Y+r.NormFloat64()*0.03, hot.Z+r.NormFloat64()*0.03)
		} else {
			c = geom.V(r.Float64(), r.Float64(), r.Float64())
		}
		q, ok := geom.Cube(c, 0.01+r.Float64()*0.05).Intersection(geom.UnitBox())
		if !ok || q.Volume() == 0 {
			continue
		}
		k := 1 + r.Intn(4)
		seen := map[object.DatasetID]bool{}
		var dss []object.DatasetID
		for len(dss) < k {
			ds := object.DatasetID(r.Intn(4))
			if !seen[ds] {
				seen[ds] = true
				dss = append(dss, ds)
			}
		}
		got, err := eng.Query(q, dss)
		if err != nil {
			t.Fatal(err)
		}
		want, err := oracle.Query(q, dss)
		if err != nil {
			t.Fatal(err)
		}
		if !engine.SameObjects(got, want) {
			t.Fatalf("%v trial %d: %d objects, oracle %d", policy, trial, len(got), len(want))
		}
	}
}

func TestCoarsestCoverMatchesOracle(t *testing.T) { policyOracleCheck(t, CoarsestCover, 23) }

func TestCoarsestCoverEntriesDisjoint(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Merger.LevelPolicy = CoarsestCover
	eng, _, _ := testSetup(t, 3, 2500, 24, cfg)
	q := geom.Cube(geom.V(0.5, 0.5, 0.5), 0.04)
	divergeTrees(t, eng, q)
	dss := []object.DatasetID{0, 1, 2}
	for i := 0; i < 4; i++ {
		if _, err := eng.Query(q, dss); err != nil {
			t.Fatal(err)
		}
	}
	mf := eng.Merger().file(KeyOf(dss))
	if mf == nil {
		t.Skip("no merge file created for this layout")
	}
	fanout := eng.Tree(0).FanoutPerDim()
	keys := mf.EntryKeys()
	for i := 0; i < len(keys); i++ {
		for j := i + 1; j < len(keys); j++ {
			if keys[i].AncestorOf(keys[j], fanout) || keys[j].AncestorOf(keys[i], fanout) {
				t.Fatalf("overlapping merge entries %v and %v", keys[i], keys[j])
			}
		}
	}
}

// TestMergeStepNeverRefines: no merge plan changes a member tree — the
// invariant that lets mergeStep advance the layout epoch on appends and
// evictions alone. On trees whose levels diverge in the hot area, a step
// that copies partitions leaves every member's leaves and the engine's
// refinement count where they were, under either policy.
func TestMergeStepNeverRefines(t *testing.T) {
	for _, policy := range []LevelPolicy{SameLevel, CoarsestCover} {
		t.Run(policy.String(), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Merger.LevelPolicy = policy
			cfg.Merger.MergeThreshold = 100 // queries only gather candidates; the step is run by hand
			eng, _, _ := testSetup(t, 3, 2500, 24, cfg)
			// Dataset 0 alone is asked small questions, the combination large
			// ones: tree 0 ends levels deeper than the others in the hot area.
			divergeTrees(t, eng, geom.Cube(geom.V(0.5, 0.5, 0.5), 0.01))
			q := geom.Cube(geom.V(0.5, 0.5, 0.5), 0.04)
			dss := []object.DatasetID{0, 1, 2}
			for i := 0; i < 3; i++ {
				if _, err := eng.Query(q, dss); err != nil {
					t.Fatal(err)
				}
			}
			if a, b := eng.Tree(0).NumLeaves(), eng.Tree(1).NumLeaves(); a == b {
				t.Fatalf("the trees did not diverge: %d and %d leaves", a, b)
			}
			leaves := func() (n [3]int) {
				for i := range n {
					n[i] = eng.Tree(object.DatasetID(i)).NumLeaves()
				}
				return n
			}
			before, refBefore := leaves(), eng.Metrics().Refinements
			if err := eng.mergeStep(context.Background(), recordOf(eng, dss...)); err != nil {
				t.Fatal(err)
			}
			if eng.Merger().PartitionsMerged == 0 {
				t.Fatal("the step merged nothing: the invariant was not exercised")
			}
			if after, ref := leaves(), eng.Metrics().Refinements; after != before || ref != refBefore {
				t.Fatalf("the merge step refined a tree: leaves %v -> %v, refinements %d -> %d", before, after, refBefore, ref)
			}
		})
	}
}

// TestSameLevelCandidatesNeverOverlap holds the argument a SameLevel stage
// skips its overlap scan on: once planSameLevel accepts a candidate, no merge
// entry lies inside it. Every member holds a leaf at the candidate, an entry
// strictly inside it was copied when every member held a leaf there, below
// it, and trees never coarsen. Over a converging engine whose trees refine to
// mixed levels, after every query, no leaf key of a merge file's members that
// the file does not cover and the policy accepts overlaps an entry.
func TestSameLevelCandidatesNeverOverlap(t *testing.T) {
	eng, _, _ := testSetup(t, 4, 2000, 23, DefaultConfig())
	fanout := eng.Tree(0).FanoutPerDim()
	r := rand.New(rand.NewSource(24))
	hot := geom.V(0.4, 0.4, 0.4)
	job, checked := new(mergeJob), 0
	for trial := 0; trial < 120; trial++ {
		c := geom.V(hot.X+r.NormFloat64()*0.05, hot.Y+r.NormFloat64()*0.05, hot.Z+r.NormFloat64()*0.05)
		q, ok := geom.Cube(c, 0.005+r.Float64()*0.08).Intersection(geom.UnitBox())
		if !ok || q.Volume() == 0 {
			continue
		}
		dss := []object.DatasetID{object.DatasetID(r.Intn(4))}
		if r.Intn(4) > 0 {
			dss = []object.DatasetID{0, 1, 2, 3}[:3+r.Intn(2)]
		}
		if _, err := eng.Query(q, dss); err != nil {
			t.Fatal(err)
		}
		for _, mf := range eng.merger.Files() {
			st := &stagedMerge{combo: mf.combo, mf: mf}
			for _, ds := range mf.combo.members {
				for _, leaf := range eng.Tree(ds).AppendLeavesUnder(nil, octree.Key{}) {
					cand := leaf.Key()
					if st.covering(cand, fanout) || !eng.merger.planSameLevel(job, cand, mf.combo.members, eng.trees) {
						continue
					}
					checked++
					if st.overlaps(cand, fanout) {
						t.Fatalf("query %d: accepted candidate %v of %s contains a merge entry", trial, cand, mf.combo.key)
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no candidate was accepted: the argument was not exercised")
	}
}
