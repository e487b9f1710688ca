package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"spaceodyssey/internal/workload"
)

// smallConfig keeps harness tests fast.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Datasets = 5
	cfg.ObjectsPerDataset = 2000
	cfg.GridCells = 4
	return cfg
}

func smallWorkload() WorkloadConfig {
	return WorkloadConfig{Queries: 30, QueryVolumeFrac: 1e-4, Seed: 3}
}

func TestDeployIsCleanSlate(t *testing.T) {
	env := NewEnv(smallConfig())
	dev, raws, err := env.Deploy()
	if err != nil {
		t.Fatal(err)
	}
	if dev.Clock() != 0 {
		t.Fatal("clock not reset after deploy")
	}
	if len(raws) != 5 {
		t.Fatalf("%d raw files", len(raws))
	}
	for i, r := range raws {
		if r.NumObjects() != 2000 {
			t.Fatalf("raw %d has %d objects", i, r.NumObjects())
		}
	}
}

func TestAllEnginesRunAndAgree(t *testing.T) {
	env := NewEnv(smallConfig())
	spec, err := FigureByID("fig4a")
	if err != nil {
		t.Fatal(err)
	}
	w, err := WorkloadForSpec(env, spec, smallWorkload(), 3)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[EngineKind]int{}
	kinds := []EngineKind{
		KindOdyssey, KindOdysseyNoMerge, KindFLATAin1, KindFLAT1fE,
		KindRTreeAin1, KindRTree1fE, KindGrid1fE, KindGridAin1, KindNaive,
	}
	for _, kind := range kinds {
		r, err := env.Run(kind, w)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if len(r.QueryTimes) != len(w.Queries) {
			t.Fatalf("%s: %d query times", kind, len(r.QueryTimes))
		}
		counts[kind] = r.ObjectsReturned
	}
	// Every engine must return the same total number of objects.
	want := counts[KindNaive]
	for kind, got := range counts {
		if got != want {
			t.Fatalf("%s returned %d objects, naive %d", kind, got, want)
		}
	}
}

func TestAdaptiveEnginesHaveZeroIndexTime(t *testing.T) {
	env := NewEnv(smallConfig())
	spec, _ := FigureByID("fig4a")
	w, err := WorkloadForSpec(env, spec, smallWorkload(), 3)
	if err != nil {
		t.Fatal(err)
	}
	r, err := env.Run(KindOdyssey, w)
	if err != nil {
		t.Fatal(err)
	}
	if r.IndexTime != 0 {
		t.Fatalf("Odyssey IndexTime = %v", r.IndexTime)
	}
	if r.Metrics == nil || r.Metrics.Queries != len(w.Queries) {
		t.Fatalf("metrics missing or wrong: %+v", r.Metrics)
	}
	g, err := env.Run(KindGrid1fE, w)
	if err != nil {
		t.Fatal(err)
	}
	if g.IndexTime == 0 {
		t.Fatal("Grid IndexTime = 0")
	}
	if g.Metrics != nil {
		t.Fatal("non-Odyssey engine has Odyssey metrics")
	}
}

func TestQueriesAnsweredBy(t *testing.T) {
	r := Result{
		IndexTime:  0,
		QueryTimes: []time.Duration{1, 1, 1, 1},
	}
	if got := r.QueriesAnsweredBy(2); got != 2 {
		t.Fatalf("QueriesAnsweredBy(2) = %d", got)
	}
	if got := r.QueriesAnsweredBy(0); got != 0 {
		t.Fatalf("QueriesAnsweredBy(0) = %d", got)
	}
	if got := r.QueriesAnsweredBy(100); got != 4 {
		t.Fatalf("QueriesAnsweredBy(100) = %d", got)
	}
	r.IndexTime = 3
	if got := r.QueriesAnsweredBy(3); got != 0 {
		t.Fatalf("with index time: %d", got)
	}
}

func TestUnknownEngineKind(t *testing.T) {
	env := NewEnv(smallConfig())
	dev, raws, err := env.Deploy()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := env.NewEngine(EngineKind("bogus"), dev, raws); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestFigureByID(t *testing.T) {
	for _, f := range Figures {
		got, err := FigureByID(f.ID)
		if err != nil || got.ID != f.ID {
			t.Fatalf("FigureByID(%s): %v", f.ID, err)
		}
	}
	if _, err := FigureByID("fig9z"); err == nil {
		t.Fatal("unknown figure accepted")
	}
}

func TestFigure4SmallRun(t *testing.T) {
	env := NewEnv(smallConfig())
	spec, _ := FigureByID("fig4a")
	res, err := Figure4(env, spec, smallWorkload(), []int{1, 3},
		[]EngineKind{KindGrid1fE, KindOdyssey})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	var buf bytes.Buffer
	PrintFigure4(&buf, res)
	out := buf.String()
	for _, want := range []string{"fig4a", "Grid-1fE", "Odyssey", "ody@idx"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
	// The static engine rows must carry the answered-by-index-end metric.
	for _, row := range res.Rows {
		if row.Engine == KindGrid1fE && row.OdysseyAnsweredByIndexEnd < 0 {
			t.Fatal("Grid row missing Odyssey comparison")
		}
		if row.Engine == KindOdyssey && row.Index != 0 {
			t.Fatal("Odyssey has nonzero index time")
		}
	}
}

func TestFigure5SmallRun(t *testing.T) {
	env := NewEnv(smallConfig())
	spec, _ := FigureByID("fig5a")
	res, err := Figure5(env, spec, smallWorkload(), []EngineKind{KindGrid1fE, KindOdyssey})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series[KindOdyssey]) != 30 {
		t.Fatalf("series length %d", len(res.Series[KindOdyssey]))
	}
	var buf bytes.Buffer
	PrintFigure5(&buf, res)
	if !strings.Contains(buf.String(), "first query") {
		t.Fatalf("table missing first-query row:\n%s", buf.String())
	}
}

func TestFigure5cSmallRun(t *testing.T) {
	cfg := smallConfig()
	cfg.Datasets = 6
	env := NewEnv(cfg)
	wcfg := smallWorkload()
	wcfg.Queries = 60
	res, err := Figure5c(env, wcfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.PopularCount <= 0 || len(res.WithMerge) != res.PopularCount {
		t.Fatalf("popular combo count %d, series %d", res.PopularCount, len(res.WithMerge))
	}
	if len(res.WithMerge) != len(res.WithoutMerge) {
		t.Fatal("series lengths differ")
	}
	var buf bytes.Buffer
	PrintFigure5c(&buf, res)
	if !strings.Contains(buf.String(), "merging gain") {
		t.Fatalf("output missing gain:\n%s", buf.String())
	}
}

func TestVerifyAgainstOracle(t *testing.T) {
	env := NewEnv(smallConfig())
	spec, _ := FigureByID("fig4a")
	w, err := WorkloadForSpec(env, spec, smallWorkload(), 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []EngineKind{KindOdyssey, KindGrid1fE} {
		if err := env.VerifyAgainstOracle(kind, w); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
	}
}

func TestPopularComboDatasets(t *testing.T) {
	got := PopularComboDatasets("1,3,10")
	if len(got) != 3 || got[0] != 1 || got[1] != 3 || got[2] != 10 {
		t.Fatalf("parsed %v", got)
	}
	if len(PopularComboDatasets("")) != 0 {
		t.Fatal("empty key parsed to datasets")
	}
	single := PopularComboDatasets("7")
	if len(single) != 1 || single[0] != 7 {
		t.Fatalf("single = %v", single)
	}
}

func TestWorkloadConfigDefaults(t *testing.T) {
	w := DefaultWorkloadConfig()
	if w.Queries != 1000 || w.QueryVolumeFrac != 1e-4 {
		t.Fatalf("defaults = %+v", w)
	}
	if len(Figure4Engines) != 5 {
		t.Fatalf("Figure4Engines = %v", Figure4Engines)
	}
}

func TestGridSweep(t *testing.T) {
	env := NewEnv(smallConfig())
	rows, err := GridSweep(env, smallWorkload(), []int{3, 4}, []int{500})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Total != r.Index+r.Query || r.Total == 0 {
			t.Fatalf("inconsistent row %+v", r)
		}
	}
	var buf bytes.Buffer
	PrintGridSweep(&buf, rows)
	if !strings.Contains(buf.String(), "optimum") {
		t.Fatalf("sweep output missing optimum marker:\n%s", buf.String())
	}
}

func TestWorkloadForUsesFigureSpec(t *testing.T) {
	env := NewEnv(smallConfig())
	spec, _ := FigureByID("fig4d")
	w, err := WorkloadForSpec(env, spec, smallWorkload(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Centers) != 0 {
		t.Fatal("uniform figure has cluster centers")
	}
	if w.QuerySide <= 0 {
		t.Fatal("query side missing")
	}
	_ = workload.RangeUniform
}

func TestPercentile(t *testing.T) {
	series := make([]time.Duration, 100)
	for i := range series {
		series[i] = time.Duration(i + 1) // 1..100
	}
	cases := []struct {
		p    float64
		want time.Duration
	}{
		{0, 1}, {50, 50}, {95, 95}, {99, 99}, {100, 100},
	}
	for _, c := range cases {
		if got := Percentile(series, c.p); got != c.want {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Error("empty series percentile nonzero")
	}
	// Input must not be mutated (sorted copy).
	shuffled := []time.Duration{5, 1, 4, 2, 3}
	Percentile(shuffled, 50)
	if shuffled[0] != 5 || shuffled[4] != 3 {
		t.Error("Percentile mutated its input")
	}
	if got := Percentile([]time.Duration{7}, 50); got != 7 {
		t.Errorf("single-element percentile = %v", got)
	}
}

func TestPrintFigure5IncludesPercentiles(t *testing.T) {
	res := Figure5Result{
		Spec:    FigureSpec{ID: "fig5a"},
		Engines: []EngineKind{KindOdyssey},
		Series: map[EngineKind][]time.Duration{
			KindOdyssey: make([]time.Duration, 100),
		},
	}
	var buf bytes.Buffer
	PrintFigure5(&buf, res)
	for _, want := range []string{"p50", "p95", "p99"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("output missing %s:\n%s", want, buf.String())
		}
	}
}
