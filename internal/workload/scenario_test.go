package workload

import (
	"math"
	"reflect"
	"testing"
)

func TestScenarioNamesAllGenerate(t *testing.T) {
	cfg := ScenarioConfig{Seed: 7, NumQueries: 120, NumDatasets: 6, DatasetsPerQuery: 3}
	for _, name := range ScenarioNames() {
		w, err := GenerateScenario(name, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(w.Queries) != 120 {
			t.Fatalf("%s: got %d queries, want 120", name, len(w.Queries))
		}
		if w.Name != name {
			t.Fatalf("got name %q, want %q", w.Name, name)
		}
		if w.Description == "" || ScenarioDescription(name) != w.Description {
			t.Fatalf("%s: missing or mismatched description", name)
		}
		if len(w.Gaps) != len(w.Queries) {
			t.Fatalf("%s: %d gaps for %d queries", name, len(w.Gaps), len(w.Queries))
		}
		bounds := cfg.withDefaults().Bounds
		for i, q := range w.Queries {
			if q.ID != i {
				t.Fatalf("%s: query %d has ID %d", name, i, q.ID)
			}
			if bounds.Union(q.Range) != bounds {
				t.Fatalf("%s: query %d range %v escapes bounds", name, i, q.Range)
			}
			if len(q.Datasets) != 3 {
				t.Fatalf("%s: query %d touches %d datasets", name, i, len(q.Datasets))
			}
			if w.Gaps[i] < 0 {
				t.Fatalf("%s: negative gap %g at %d", name, w.Gaps[i], i)
			}
		}
	}
}

func TestScenarioUnknownName(t *testing.T) {
	if _, err := GenerateScenario("nope", ScenarioConfig{Seed: 1}); err == nil {
		t.Fatal("expected error for unknown scenario")
	}
}

func TestScenarioDeterministic(t *testing.T) {
	cfg := ScenarioConfig{Seed: 42, NumQueries: 100, NumDatasets: 5, DatasetsPerQuery: 2}
	for _, name := range ScenarioNames() {
		a, err := GenerateScenario(name, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := GenerateScenario(name, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: same seed produced different workloads", name)
		}
		c, err := GenerateScenario(name, ScenarioConfig{
			Seed: 43, NumQueries: 100, NumDatasets: 5, DatasetsPerQuery: 2})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if reflect.DeepEqual(a.Queries, c.Queries) {
			t.Fatalf("%s: different seeds produced identical queries", name)
		}
	}
}

func TestDriftHotspotMigrates(t *testing.T) {
	w, err := GenerateScenario("drift", ScenarioConfig{Seed: 3, NumQueries: 300})
	if err != nil {
		t.Fatal(err)
	}
	n := len(w.Queries)
	first := Centroid(w.Queries, 0, n/3)
	last := Centroid(w.Queries, 2*n/3, n)
	if d := first.Sub(last).Len(); d < 0.05 {
		t.Fatalf("drift phases barely moved: centroid distance %g", d)
	}
	// Bursty arrivals: mostly zero gaps punctuated by long idles.
	var zeros, longs int
	for _, g := range w.Gaps {
		switch {
		case g == 0:
			zeros++
		case g >= 4:
			longs++
		}
	}
	if zeros == 0 || longs == 0 {
		t.Fatalf("drift pacing not bursty: %d zero gaps, %d long gaps", zeros, longs)
	}
}

func TestMixScenarioVolumes(t *testing.T) {
	scan, err := GenerateScenario("scanheavy", ScenarioConfig{Seed: 9, NumQueries: 200})
	if err != nil {
		t.Fatal(err)
	}
	point, err := GenerateScenario("pointheavy", ScenarioConfig{Seed: 9, NumQueries: 200})
	if err != nil {
		t.Fatal(err)
	}
	bigVol := func(w ScenarioWorkload) int {
		big := 0
		for _, q := range w.Queries {
			if q.Range.Volume() > math.Pow(w.QuerySide, 3)*1.5 {
				big++
			}
		}
		return big
	}
	sb, pb := bigVol(scan), bigVol(point)
	if sb <= pb {
		t.Fatalf("scanheavy should have more large scans: scan=%d point=%d", sb, pb)
	}
	if sb < 120 || sb > 190 {
		t.Fatalf("scanheavy large-scan count %d outside ~80%% band", sb)
	}
	if pb < 15 || pb > 85 {
		t.Fatalf("pointheavy large-scan count %d outside ~20%% band", pb)
	}
}

func TestDiurnalGapsOscillate(t *testing.T) {
	w, err := GenerateScenario("diurnal", ScenarioConfig{Seed: 5, NumQueries: 200})
	if err != nil {
		t.Fatal(err)
	}
	min, max := math.Inf(1), math.Inf(-1)
	for _, g := range w.Gaps {
		min = math.Min(min, g)
		max = math.Max(max, g)
	}
	if max/min < 3 {
		t.Fatalf("diurnal pacing too flat: min=%g max=%g", min, max)
	}
}

func TestAdversarialNoComboReuseWithinCycle(t *testing.T) {
	w, err := GenerateScenario("adversarial", ScenarioConfig{
		Seed: 11, NumQueries: 100, NumDatasets: 8, DatasetsPerQuery: 3})
	if err != nil {
		t.Fatal(err)
	}
	// 8 choose 3 = 56 > cycle prefix: the first 56 queries must all use
	// distinct combinations.
	seen := make(map[string]bool)
	for _, q := range w.Queries[:56] {
		key := ""
		for _, ds := range q.Datasets {
			key += string(rune(ds)) + ","
		}
		if seen[key] {
			t.Fatalf("combination reused within one cycle: %v", q.Datasets)
		}
		seen[key] = true
	}
}
