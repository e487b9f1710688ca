package odyssey

import (
	"time"

	"spaceodyssey/internal/bench"
	"spaceodyssey/internal/workload"
)

// BaselineKind names an engine for comparison runs.
type BaselineKind = bench.EngineKind

// The engines available to Compare — Space Odyssey, its no-merging
// ablation, and every baseline of the paper's evaluation.
const (
	EngineOdyssey        = bench.KindOdyssey
	EngineOdysseyNoMerge = bench.KindOdysseyNoMerge
	EngineFLATAin1       = bench.KindFLATAin1
	EngineFLAT1fE        = bench.KindFLAT1fE
	EngineRTreeAin1      = bench.KindRTreeAin1
	EngineRTree1fE       = bench.KindRTree1fE
	EngineGrid1fE        = bench.KindGrid1fE
	EngineGridAin1       = bench.KindGridAin1
	EngineNaiveScan      = bench.KindNaive
)

// ComparisonResult summarizes one engine's run over a workload.
type ComparisonResult struct {
	Engine BaselineKind
	// IndexTime is the upfront build cost (zero for adaptive engines).
	IndexTime time.Duration
	// QueryTime is the summed per-query simulated time.
	QueryTime time.Duration
	// Total = IndexTime + QueryTime.
	Total time.Duration
	// FirstQuery is the first query's time: the cold start an adaptive
	// engine pays.
	FirstQuery time.Duration
	// PerQuery holds every individual latency.
	PerQuery []time.Duration
	// Objects is the total result cardinality (identical across engines
	// for the same workload — verified by the test suite).
	Objects int
	// Metrics is non-nil for the Odyssey engines.
	Metrics *Metrics
}

// CompareOptions tunes a Compare run.
type CompareOptions struct {
	// Bounds of the shared volume (default unit box).
	Bounds Box
	// Cost model (default SAS).
	Cost CostModel
	// CachePages for the buffer cache (default 1024).
	CachePages int
	// GridCells for the Grid baselines (default 8 at laptop scale).
	GridCells int
}

// Compare runs the same workload against several engines, each on its own
// fresh simulated disk holding identical raw files, following the paper's
// methodology (caches dropped before every query). Dataset i of data must
// be tagged DatasetID(i).
func Compare(data [][]Object, w Workload, engines []BaselineKind, opts CompareOptions) ([]ComparisonResult, error) {
	cfg := bench.DefaultConfig()
	if opts.Bounds.Volume() > 0 {
		cfg.Bounds = opts.Bounds
	}
	zero := CostModel{}
	if opts.Cost != zero {
		cfg.Cost = opts.Cost
	}
	if opts.CachePages > 0 {
		cfg.CachePages = opts.CachePages
	}
	if opts.GridCells > 0 {
		cfg.GridCells = opts.GridCells
	}
	env := bench.NewEnvWithData(cfg, data)

	out := make([]ComparisonResult, 0, len(engines))
	for _, kind := range engines {
		r, err := env.Run(kind, workload.Workload(w))
		if err != nil {
			return nil, err
		}
		cr := ComparisonResult{
			Engine:    kind,
			IndexTime: r.IndexTime,
			QueryTime: r.QueryTotal(),
			Total:     r.Total(),
			PerQuery:  r.QueryTimes,
			Objects:   r.ObjectsReturned,
			Metrics:   r.Metrics,
		}
		if len(r.QueryTimes) > 0 {
			cr.FirstQuery = r.QueryTimes[0]
		}
		out = append(out, cr)
	}
	return out, nil
}
