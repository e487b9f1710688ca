package bench

import (
	"fmt"
	"io"
	"math/rand"
	"slices"
	"time"

	"spaceodyssey/internal/core"
	"spaceodyssey/internal/datagen"
	"spaceodyssey/internal/geom"
	"spaceodyssey/internal/workload"
)

// FigureSpec selects one of the paper's evaluation figures.
type FigureSpec struct {
	// ID is "fig4a".."fig4d", "fig5a".."fig5c".
	ID string
	// RangeDist / CombDist define the workload skew.
	RangeDist workload.RangeDist
	CombDist  workload.CombDist
	// ClusterCenters for the clustered range distribution.
	ClusterCenters int
}

// Figures enumerates every figure of the evaluation section.
var Figures = []FigureSpec{
	{ID: "fig4a", RangeDist: workload.RangeClustered, CombDist: workload.CombZipf, ClusterCenters: 10},
	{ID: "fig4b", RangeDist: workload.RangeClustered, CombDist: workload.CombHeavyHitter, ClusterCenters: 10},
	{ID: "fig4c", RangeDist: workload.RangeClustered, CombDist: workload.CombSelfSimilar, ClusterCenters: 10},
	{ID: "fig4d", RangeDist: workload.RangeUniform, CombDist: workload.CombUniform, ClusterCenters: 10},
	{ID: "fig5a", RangeDist: workload.RangeClustered, CombDist: workload.CombSelfSimilar, ClusterCenters: 10},
	{ID: "fig5b", RangeDist: workload.RangeUniform, CombDist: workload.CombUniform, ClusterCenters: 10},
	{ID: "fig5c", RangeDist: workload.RangeClustered, CombDist: workload.CombZipf, ClusterCenters: 5},
}

// A spec is its id in a report; the Figures table holds the rest.
func (s FigureSpec) MarshalText() ([]byte, error) { return []byte(s.ID), nil }

func (s *FigureSpec) UnmarshalText(id []byte) (err error) {
	*s, err = FigureByID(string(id))
	return err
}

// FigureByID returns the spec for an id.
func FigureByID(id string) (FigureSpec, error) {
	for _, f := range Figures {
		if f.ID == id {
			return f, nil
		}
	}
	return FigureSpec{}, fmt.Errorf("bench: unknown figure %q", id)
}

// WorkloadConfig carries the workload-scale knobs shared by all figures.
type WorkloadConfig struct {
	// Queries per workload (paper: 1000).
	Queries int
	// QueryVolumeFrac (paper: 1e-6 of the volume; harness default 1e-4 so
	// that the partition-size-to-query-size ratio — which controls how
	// many refinement levels a hot area needs — matches the paper's at
	// 1/100 data scale; see EXPERIMENTS.md).
	QueryVolumeFrac float64
	// Seed drives workload generation.
	Seed int64
}

// WorkloadForSpec builds the workload of a figure for k datasets per query.
// Clustered query centers are sampled from the datasets' shared anatomy —
// scientists explore areas where structures exist (paper Figure 3 shows the
// query clusters sitting on the data).
func WorkloadForSpec(env *Env, spec FigureSpec, wcfg WorkloadConfig, k int) (workload.Workload, error) {
	cfg := workload.Config{
		Seed:             wcfg.Seed,
		NumQueries:       wcfg.Queries,
		NumDatasets:      env.cfg.Datasets,
		DatasetsPerQuery: k,
		Bounds:           env.cfg.Bounds,
		QueryVolumeFrac:  wcfg.QueryVolumeFrac,
		RangeDist:        spec.RangeDist,
		CombDist:         spec.CombDist,
		ClusterCenters:   spec.ClusterCenters,
	}
	if spec.RangeDist == workload.RangeClustered {
		anatomy := datagen.Anatomy(datagen.Config{
			Seed:   env.cfg.DataSeed,
			Bounds: env.cfg.Bounds,
			Layout: env.cfg.DataLayout,
			// Matches GenerateDatasets' shared-anatomy derivation.
			ClusterSeed: env.cfg.DataSeed*31 + 17,
		})
		if len(anatomy) > 0 {
			r := rand.New(rand.NewSource(wcfg.Seed + 101))
			r.Shuffle(len(anatomy), func(i, j int) { anatomy[i], anatomy[j] = anatomy[j], anatomy[i] })
			n := spec.ClusterCenters
			if n > len(anatomy) {
				n = len(anatomy)
			}
			// Offset each query cluster by one data-cluster sigma: the
			// paper's Figure 3 shows query clusters sitting on the data
			// without targeting the density peaks.
			sigma := 0.03 * env.cfg.Bounds.LongestSide()
			centers := make([]geom.Vec, n)
			for i, c := range anatomy[:n] {
				centers[i] = geom.Vec{
					X: c.X + r.NormFloat64()*sigma,
					Y: c.Y + r.NormFloat64()*sigma,
					Z: c.Z + r.NormFloat64()*sigma,
				}.Max(env.cfg.Bounds.Min).Min(env.cfg.Bounds.Max)
			}
			cfg.Centers = centers
		}
	}
	return workload.Generate(cfg)
}

// Figure4Row is one bar of Figure 4: one engine at one k. In JSON, like
// every duration of the figure results, its times are simulated nanoseconds.
type Figure4Row struct {
	K            int           `json:"k"`
	Combinations int           `json:"combinations"` // distinct combinations actually queried
	Engine       EngineKind    `json:"engine"`
	Index        time.Duration `json:"index_ns"`
	Query        time.Duration `json:"query_ns"`
	Total        time.Duration `json:"total_ns"`
	// OdysseyAnsweredByIndexEnd: for static engines, how many of the 1000
	// queries Odyssey had answered by the time this engine finished
	// indexing (the paper's data-to-query comparison). -1 when not
	// applicable.
	OdysseyAnsweredByIndexEnd int `json:"odyssey_answered_by_index_end"`
}

// Figure4Result is the full sweep of one subfigure.
type Figure4Result struct {
	Spec FigureSpec   `json:"figure"`
	Ks   []int        `json:"ks"`
	Rows []Figure4Row `json:"rows"`
}

// Figure4 runs one subfigure: for each k in ks, every engine processes the
// same 1000-query workload on its own fresh deployment.
func Figure4(env *Env, spec FigureSpec, wcfg WorkloadConfig, ks []int, engines []EngineKind) (Figure4Result, error) {
	if len(ks) == 0 {
		ks = []int{1, 3, 5, 7, 9}
	}
	if len(engines) == 0 {
		engines = Figure4Engines
	}
	res := Figure4Result{Spec: spec, Ks: ks}
	for _, k := range ks {
		w, err := WorkloadForSpec(env, spec, wcfg, k)
		if err != nil {
			return res, err
		}
		combos := w.DistinctCombinations()
		var odysseyRes *Result
		results := make([]Result, 0, len(engines))
		for _, kind := range engines {
			r, err := env.Run(kind, w)
			if err != nil {
				return res, fmt.Errorf("%s k=%d: %w", spec.ID, k, err)
			}
			results = append(results, r)
			if kind == KindOdyssey {
				cp := r
				odysseyRes = &cp
			}
		}
		for _, r := range results {
			row := Figure4Row{
				K: k, Combinations: combos, Engine: r.Engine,
				Index: r.IndexTime, Query: r.QueryTotal(), Total: r.Total(),
				OdysseyAnsweredByIndexEnd: -1,
			}
			if odysseyRes != nil && r.Engine != KindOdyssey && r.IndexTime > 0 {
				row.OdysseyAnsweredByIndexEnd = odysseyRes.QueriesAnsweredBy(r.IndexTime)
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

// PrintFigure4 renders the sweep as a text table.
func PrintFigure4(w io.Writer, r Figure4Result) {
	fmt.Fprintf(w, "== %s: query ranges %s, dataset ids %s ==\n",
		r.Spec.ID, r.Spec.RangeDist, r.Spec.CombDist)
	fmt.Fprintf(w, "%-4s %-7s %-16s %12s %12s %12s %10s\n",
		"k", "#combs", "approach", "index(s)", "query(s)", "total(s)", "ody@idx")
	for _, row := range r.Rows {
		ody := "-"
		if row.OdysseyAnsweredByIndexEnd >= 0 {
			ody = fmt.Sprintf("%d", row.OdysseyAnsweredByIndexEnd)
		}
		fmt.Fprintf(w, "%-4d %-7d %-16s %12.2f %12.2f %12.2f %10s\n",
			row.K, row.Combinations, row.Engine,
			row.Index.Seconds(), row.Query.Seconds(), row.Total.Seconds(), ody)
	}
}

// Figure5Result is a per-query latency series comparison (Figures 5a/5b).
type Figure5Result struct {
	Spec    FigureSpec                     `json:"figure"`
	K       int                            `json:"k"`
	Series  map[EngineKind][]time.Duration `json:"series_ns"`
	Engines []EngineKind                   `json:"engines"`
}

// Figure5 runs the per-query latency experiment: FLAT-Ain1, Grid-1fE and
// Odyssey answering the same 1000-query sequence with 5 of 10 datasets.
func Figure5(env *Env, spec FigureSpec, wcfg WorkloadConfig, engines []EngineKind) (Figure5Result, error) {
	if len(engines) == 0 {
		engines = []EngineKind{KindFLATAin1, KindGrid1fE, KindOdyssey}
	}
	const k = 5
	w, err := WorkloadForSpec(env, spec, wcfg, k)
	if err != nil {
		return Figure5Result{}, err
	}
	res := Figure5Result{Spec: spec, K: k, Series: map[EngineKind][]time.Duration{}, Engines: engines}
	for _, kind := range engines {
		r, err := env.Run(kind, w)
		if err != nil {
			return res, fmt.Errorf("%s: %w", spec.ID, err)
		}
		res.Series[kind] = r.QueryTimes
	}
	return res, nil
}

// PrintFigure5 renders the series bucketed into deciles of the query
// sequence (the figures are log-scale scatter plots; buckets convey the
// convergence shape in text).
func PrintFigure5(w io.Writer, r Figure5Result) {
	fmt.Fprintf(w, "== %s: per-query time, ranges %s, ids %s, k=%d ==\n",
		r.Spec.ID, r.Spec.RangeDist, r.Spec.CombDist, r.K)
	fmt.Fprintf(w, "%-18s", "query range")
	for _, e := range r.Engines {
		fmt.Fprintf(w, " %14s", e)
	}
	fmt.Fprintln(w)
	n := 0
	for _, s := range r.Series {
		n = len(s)
		break
	}
	buckets := 10
	for b := 0; b < buckets; b++ {
		lo := b * n / buckets
		hi := (b + 1) * n / buckets
		if hi <= lo {
			continue
		}
		fmt.Fprintf(w, "%7d – %-8d", lo+1, hi)
		for _, e := range r.Engines {
			fmt.Fprintf(w, " %13.3fs", Mean(r.Series[e][lo:hi]).Seconds())
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-18s", "first query")
	for _, e := range r.Engines {
		fmt.Fprintf(w, " %13.3fs", r.Series[e][0].Seconds())
	}
	fmt.Fprintln(w)
	for _, p := range []float64{50, 95, 99} {
		fmt.Fprintf(w, "%-18s", fmt.Sprintf("p%.0f", p))
		for _, e := range r.Engines {
			fmt.Fprintf(w, " %13.3fs", Percentile(r.Series[e], p).Seconds())
		}
		fmt.Fprintln(w)
	}
}

// Figure5cResult isolates the effect of merging.
type Figure5cResult struct {
	Spec FigureSpec `json:"figure"`
	// PopularCombo is the most-queried combination and PopularCount its
	// query count (paper: 751 of 1000 under Zipf).
	PopularCombo core.ComboKey `json:"popular_combo"`
	PopularCount int           `json:"popular_count"`
	// WithMerge / WithoutMerge are the per-query times of only the queries
	// requesting the popular combination.
	WithMerge    []time.Duration `json:"with_merge_ns"`
	WithoutMerge []time.Duration `json:"without_merge_ns"`
	// GainPercent is the average per-query gain of merging over the
	// steady-state tail (paper: ~25%).
	GainPercent float64 `json:"gain_percent"`
	// The merging run's layout: merge files created, partitions copied into
	// them, partitions served from them.
	MergeFiles          int `json:"merge_files"`
	PartitionsMerged    int `json:"partitions_merged"`
	PartitionsFromMerge int `json:"partitions_from_merge"`
}

// Figure5c runs Odyssey with and without merging on a Zipf workload with 5
// query cluster centers and reports the queries hitting the most popular
// combination.
func Figure5c(env *Env, wcfg WorkloadConfig) (Figure5cResult, error) {
	spec, err := FigureByID("fig5c")
	if err != nil {
		return Figure5cResult{}, err
	}
	const k = 5
	w, err := WorkloadForSpec(env, spec, wcfg, k)
	if err != nil {
		return Figure5cResult{}, err
	}

	// Identify the most popular combination.
	counts := map[core.ComboKey]int{}
	for _, q := range w.Queries {
		counts[core.KeyOf(q.Datasets)]++
	}
	var popular core.ComboKey
	best := 0
	for key, c := range counts {
		if c > best {
			popular, best = key, c
		}
	}

	withRes, err := env.Run(KindOdyssey, w)
	if err != nil {
		return Figure5cResult{}, err
	}
	withoutRes, err := env.Run(KindOdysseyNoMerge, w)
	if err != nil {
		return Figure5cResult{}, err
	}

	m := withRes.Metrics
	res := Figure5cResult{
		Spec: spec, PopularCombo: popular, PopularCount: best,
		MergeFiles: m.MergeFilesCreated, PartitionsMerged: m.PartitionsMerged, PartitionsFromMerge: m.PartitionsFromMerge,
	}
	for i, q := range w.Queries {
		if core.KeyOf(q.Datasets) != popular {
			continue
		}
		res.WithMerge = append(res.WithMerge, withRes.QueryTimes[i])
		res.WithoutMerge = append(res.WithoutMerge, withoutRes.QueryTimes[i])
	}
	// Steady-state gain over the tail (skip the adaptive warm-up half).
	tail := len(res.WithMerge) / 2
	mw := Mean(res.WithMerge[tail:])
	mo := Mean(res.WithoutMerge[tail:])
	if mo > 0 {
		res.GainPercent = 100 * (1 - float64(mw)/float64(mo))
	}
	return res, nil
}

// PrintFigure5c renders the merging ablation.
func PrintFigure5c(w io.Writer, r Figure5cResult) {
	fmt.Fprintf(w, "== fig5c: effect of merging (ranges %s, ids %s, 5 cluster centers) ==\n",
		r.Spec.RangeDist, r.Spec.CombDist)
	fmt.Fprintf(w, "most popular combination {%s} queried %d times\n", r.PopularCombo, r.PopularCount)
	n := len(r.WithMerge)
	buckets := 8
	fmt.Fprintf(w, "%-18s %14s %14s\n", "query range", "Odyssey", "w/o merging")
	for b := 0; b < buckets; b++ {
		lo := b * n / buckets
		hi := (b + 1) * n / buckets
		if hi <= lo {
			continue
		}
		fmt.Fprintf(w, "%7d – %-8d %13.3fs %13.3fs\n", lo+1, hi,
			Mean(r.WithMerge[lo:hi]).Seconds(),
			Mean(r.WithoutMerge[lo:hi]).Seconds())
	}
	fmt.Fprintf(w, "steady-state merging gain: %.1f%%\n", r.GainPercent)
	fmt.Fprintf(w, "merge files: %d, partitions merged: %d, served from merge: %d\n",
		r.MergeFiles, r.PartitionsMerged, r.PartitionsFromMerge)
}

// GridSweepRow is one configuration of the Grid baseline sweep.
type GridSweepRow struct {
	CellsPerDim   int
	BudgetObjects int
	Index         time.Duration
	Query         time.Duration
	Total         time.Duration
}

// GridSweep reruns the fig4a k=5 workload over Grid-1fE configurations —
// the parameter sweep the paper performs to tune its Grid baseline
// (footnote 2). The harness defaults come from this sweep.
func GridSweep(env *Env, wcfg WorkloadConfig, cells []int, budgets []int) ([]GridSweepRow, error) {
	if len(cells) == 0 {
		cells = []int{3, 4, 5, 6, 8, 10}
	}
	if len(budgets) == 0 {
		budgets = []int{env.cfg.ObjectsPerDataset / 5, env.cfg.ObjectsPerDataset / 2}
	}
	spec, err := FigureByID("fig4a")
	if err != nil {
		return nil, err
	}
	w, err := WorkloadForSpec(env, spec, wcfg, 5)
	if err != nil {
		return nil, err
	}
	var rows []GridSweepRow
	for _, budget := range budgets {
		for _, c := range cells {
			cfg := env.cfg
			cfg.GridCells = c
			cfg.GridMemBudgetObjects = budget
			swept := &Env{cfg: cfg, datasets: env.datasets}
			r, err := swept.Run(KindGrid1fE, w)
			if err != nil {
				return nil, fmt.Errorf("grid sweep cells=%d budget=%d: %w", c, budget, err)
			}
			rows = append(rows, GridSweepRow{
				CellsPerDim: c, BudgetObjects: budget,
				Index: r.IndexTime, Query: r.QueryTotal(), Total: r.Total(),
			})
		}
	}
	return rows, nil
}

// PrintGridSweep renders the sweep and marks the optimum.
func PrintGridSweep(w io.Writer, rows []GridSweepRow) {
	fmt.Fprintln(w, "== grid parameter sweep (fig4a workload, k=5) ==")
	fmt.Fprintf(w, "%-10s %-10s %12s %12s %12s\n",
		"cells/dim", "membudget", "index(s)", "query(s)", "total(s)")
	best := -1
	for i, r := range rows {
		if best < 0 || r.Total < rows[best].Total {
			best = i
		}
	}
	for i, r := range rows {
		mark := ""
		if i == best {
			mark = "  <- optimum"
		}
		fmt.Fprintf(w, "%-10d %-10d %12.2f %12.2f %12.2f%s\n",
			r.CellsPerDim, r.BudgetObjects,
			r.Index.Seconds(), r.Query.Seconds(), r.Total.Seconds(), mark)
	}
}

// Percentile returns the p-th percentile (0..100) of the series by
// nearest-rank. An empty series yields 0.
func Percentile(series []time.Duration, p float64) time.Duration {
	if len(series) == 0 {
		return 0
	}
	sorted := slices.Clone(series)
	slices.Sort(sorted)
	rank := int(p/100*float64(len(sorted))+0.5) - 1
	return sorted[min(max(rank, 0), len(sorted)-1)]
}

// Mean returns the series' mean, 0 when it is empty.
func Mean(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}
