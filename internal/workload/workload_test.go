package workload

import (
	"math"
	"testing"

	"spaceodyssey/internal/geom"
	"spaceodyssey/internal/object"
)

func TestCombinationsEnumeration(t *testing.T) {
	combos := Combinations(4, 2)
	if len(combos) != 6 {
		t.Fatalf("C(4,2) = %d", len(combos))
	}
	want := [][]object.DatasetID{
		{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3},
	}
	for i := range want {
		if len(combos[i]) != 2 || combos[i][0] != want[i][0] || combos[i][1] != want[i][1] {
			t.Fatalf("combo %d = %v, want %v", i, combos[i], want[i])
		}
	}
}

func TestCombinationsPaperSizes(t *testing.T) {
	// The paper's x axis: k of 10 datasets peaks at C(10,5)=252.
	sizes := map[int]int{1: 10, 3: 120, 5: 252, 7: 120, 9: 10}
	for k, want := range sizes {
		if got := len(Combinations(10, k)); got != want {
			t.Errorf("C(10,%d) = %d, want %d", k, got, want)
		}
	}
}

func TestCombinationsPanics(t *testing.T) {
	for _, k := range []int{0, 5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Combinations(4,%d) did not panic", k)
				}
			}()
			Combinations(4, k)
		}()
	}
}

func TestGenerateDefaultsAndDeterminism(t *testing.T) {
	w1, err := Generate(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(w1.Queries) != 1000 {
		t.Fatalf("NumQueries default = %d", len(w1.Queries))
	}
	w2, err := Generate(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range w1.Queries {
		q1, q2 := w1.Queries[i], w2.Queries[i]
		if q1.Range != q2.Range || len(q1.Datasets) != len(q2.Datasets) {
			t.Fatalf("query %d differs between identical seeds", i)
		}
	}
}

func TestGenerateQueryGeometry(t *testing.T) {
	cfg := Config{
		Seed: 2, NumQueries: 500, NumDatasets: 10, DatasetsPerQuery: 5,
		QueryVolumeFrac: 1e-6, RangeDist: RangeClustered,
	}
	w, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bounds := geom.UnitBox()
	wantVol := 1e-6 * bounds.Volume()
	for _, q := range w.Queries {
		if bounds.Union(q.Range) != bounds {
			t.Fatalf("query %d range %v outside bounds", q.ID, q.Range)
		}
		if math.Abs(q.Range.Volume()-wantVol) > 1e-12 {
			t.Fatalf("query %d volume %g, want %g", q.ID, q.Range.Volume(), wantVol)
		}
		if len(q.Datasets) != 5 {
			t.Fatalf("query %d touches %d datasets", q.ID, len(q.Datasets))
		}
		seen := map[object.DatasetID]bool{}
		for _, ds := range q.Datasets {
			if ds >= 10 {
				t.Fatalf("query %d references dataset %d", q.ID, ds)
			}
			if seen[ds] {
				t.Fatalf("query %d repeats dataset %d", q.ID, ds)
			}
			seen[ds] = true
		}
	}
	if w.QuerySide <= 0 {
		t.Fatal("QuerySide not recorded")
	}
}

func TestGenerateRejectsTooManyDatasetsPerQuery(t *testing.T) {
	_, err := Generate(Config{Seed: 1, NumDatasets: 3, DatasetsPerQuery: 5})
	if err == nil {
		t.Fatal("k > n accepted")
	}
}

func TestClusteredQueriesAreSkewed(t *testing.T) {
	gen := func(rd RangeDist) Workload {
		w, err := Generate(Config{
			Seed: 3, NumQueries: 2000, RangeDist: rd, ClusterCenters: 5})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	chi2 := func(w Workload) float64 {
		var counts [8]int
		c := geom.UnitBox().Center()
		for _, q := range w.Queries {
			qc := q.Range.Center()
			i := 0
			if qc.X >= c.X {
				i |= 1
			}
			if qc.Y >= c.Y {
				i |= 2
			}
			if qc.Z >= c.Z {
				i |= 4
			}
			counts[i]++
		}
		mean := float64(len(w.Queries)) / 8
		var x float64
		for _, n := range counts {
			d := float64(n) - mean
			x += d * d / mean
		}
		return x
	}
	clustered := gen(RangeClustered)
	uniform := gen(RangeUniform)
	if chi2(clustered) < 10*chi2(uniform) {
		t.Fatalf("clustered chi2 %.1f not ≫ uniform chi2 %.1f",
			chi2(clustered), chi2(uniform))
	}
	if len(clustered.Centers) != 5 {
		t.Fatalf("centers = %d", len(clustered.Centers))
	}
	if len(uniform.Centers) != 0 {
		t.Fatal("uniform workload has cluster centers")
	}
}

func TestExplicitCentersRespected(t *testing.T) {
	centers := []geom.Vec{geom.V(0.25, 0.25, 0.25)}
	w, err := Generate(Config{
		Seed: 4, NumQueries: 300, RangeDist: RangeClustered, Centers: centers,
		SigmaFactor: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// All query centers should be near the single cluster center.
	for _, q := range w.Queries {
		if q.Range.Center().Sub(centers[0]).Len() > 0.2 {
			t.Fatalf("query center %v far from cluster center", q.Range.Center())
		}
	}
}

func TestSkewedCombinationsConcentrate(t *testing.T) {
	// Zipf(2) over 120 combinations: the top combination should dominate
	// and the distinct count should be far below 120 (paper shows 22).
	w, err := Generate(Config{
		Seed: 5, NumQueries: 1000, NumDatasets: 10, DatasetsPerQuery: 3,
		CombDist: CombZipf,
	})
	if err != nil {
		t.Fatal(err)
	}
	distinct := w.DistinctCombinations()
	if distinct > 60 {
		t.Fatalf("zipf workload touched %d combinations, expected strong concentration", distinct)
	}
	wUni, err := Generate(Config{
		Seed: 5, NumQueries: 1000, NumDatasets: 10, DatasetsPerQuery: 3,
		CombDist: CombUniform,
	})
	if err != nil {
		t.Fatal(err)
	}
	if wUni.DistinctCombinations() <= distinct {
		t.Fatalf("uniform (%d) should touch more combinations than zipf (%d)",
			wUni.DistinctCombinations(), distinct)
	}
}

func TestRangeDistString(t *testing.T) {
	if RangeClustered.String() != "clustered" || RangeUniform.String() != "uniform" {
		t.Error("RangeDist names wrong")
	}
	if RangeDist(9).String() != "RangeDist(9)" {
		t.Error("unknown RangeDist name wrong")
	}
}

func TestHeavyHitterWorkloadHasHotCombination(t *testing.T) {
	w, err := Generate(Config{
		Seed: 6, NumQueries: 1000, NumDatasets: 10, DatasetsPerQuery: 5,
		CombDist: CombHeavyHitter,
	})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, q := range w.Queries {
		key := ""
		for _, ds := range q.Datasets {
			key += string(rune('a' + int(ds)))
		}
		counts[key]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max < 400 || max > 600 {
		t.Fatalf("hot combination got %d of 1000 queries, want ~500", max)
	}
}
