// Package bench is the experiment harness: it reconstructs every figure of
// the paper's evaluation (Figures 4a–d and 5a–c) on the simulated disk,
// following the paper's methodology — fresh engine per run, OS caches
// dropped before every query, indexing and querying time reported
// separately for the static approaches.
//
// Scale note: the paper uses 10 datasets of ~5 GB each (tens of millions of
// objects). The harness defaults to 10 datasets of 50k objects and a query
// volume chosen so that converged partitions span several pages, preserving
// the paper's partition-size-to-query-size ratio; see README's
// "Reproduction scale".
package bench

import (
	"fmt"
	"time"

	"spaceodyssey/internal/core"
	"spaceodyssey/internal/datagen"
	"spaceodyssey/internal/engine"
	"spaceodyssey/internal/flat"
	"spaceodyssey/internal/geom"
	"spaceodyssey/internal/grid"
	"spaceodyssey/internal/object"
	"spaceodyssey/internal/rawfile"
	"spaceodyssey/internal/rtree"
	"spaceodyssey/internal/simdisk"
	"spaceodyssey/internal/workload"
)

// EngineKind names every competing approach the harness can run.
type EngineKind string

// The approaches of the paper's evaluation (plus extras for ablations).
const (
	KindOdyssey        EngineKind = "Odyssey"
	KindOdysseyNoMerge EngineKind = "Odyssey-NoMerge"
	KindFLATAin1       EngineKind = "FLAT-Ain1"
	KindFLAT1fE        EngineKind = "FLAT-1fE"
	KindRTreeAin1      EngineKind = "RTree-Ain1"
	KindRTree1fE       EngineKind = "RTree-1fE"
	KindGrid1fE        EngineKind = "Grid-1fE"
	KindGridAin1       EngineKind = "Grid-Ain1"
	KindNaive          EngineKind = "NaiveScan"
)

// Figure4Engines is the paper's Figure 4 lineup.
var Figure4Engines = []EngineKind{
	KindFLATAin1, KindFLAT1fE, KindRTreeAin1, KindGrid1fE, KindOdyssey,
}

// Config describes one experimental environment.
type Config struct {
	// Datasets is n (paper: 10).
	Datasets int
	// ObjectsPerDataset scales the data (paper: ~5 GB each; harness
	// default 50000 objects ≈ 3.2 MB each on disk).
	ObjectsPerDataset int
	// DataSeed drives dataset generation.
	DataSeed int64
	// DataLayout is the spatial distribution of objects.
	DataLayout datagen.Layout
	// Bounds is the shared exploration volume.
	Bounds geom.Box
	// Cost is the disk cost model.
	Cost simdisk.CostModel
	// CachePages is the buffer-cache capacity (paper: 1 GB ≈ 262144 pages;
	// harness default scales to 1024). Caches are dropped before every
	// query regardless, per the paper's methodology.
	CachePages int
	// GridCells is the Grid baseline's cells per dimension (paper: 60 at
	// full scale, found by a parameter sweep; harness default 6, found by
	// the same sweep at harness scale — odyssey-bench -experiment gridsweep).
	GridCells int
	// Devices is the number of simulated member devices files are placed
	// on (0 or 1 = a single device, the original setup).
	Devices int
	// Channels is the number of independent I/O channels (platter heads)
	// per device (0 or 1 = the original single-head model).
	Channels int
	// GridMemBudgetObjects caps the Grid build's in-memory buffer,
	// modelling the paper's 1 GB memory limit: cells fragment into
	// multiple runs across flushes. Default: 50% of one dataset, the
	// Grid-favoring calibration at reduced scale (the paper's footnote 2
	// likewise favors Grid); odyssey-bench -experiment gridsweep is the sweep.
	GridMemBudgetObjects int
	// Odyssey is Space Odyssey's configuration.
	Odyssey core.Config
	// RTree configures both R-tree strategies.
	RTree rtree.Config
	// FLAT configures both FLAT strategies.
	FLAT flat.Config
}

// DefaultConfig returns the laptop-scale defaults.
func DefaultConfig() Config {
	return Config{
		Datasets:          10,
		ObjectsPerDataset: 50000,
		DataSeed:          1,
		DataLayout:        datagen.Clustered,
		Bounds:            geom.UnitBox(),
		Cost:              simdisk.ReducedScaleCostModel(),
		CachePages:        1024,
		GridCells:         6,
		Odyssey:           core.DefaultConfig(),
		RTree:             rtree.DefaultConfig(),
		FLAT:              flat.DefaultConfig(),
	}
}

// Env is a prepared experimental environment: the generated datasets, kept
// in memory so every engine run can start from identical raw files on a
// fresh simulated device.
type Env struct {
	cfg      Config
	datasets [][]object.Object
}

// NewEnv generates the datasets for cfg.
func NewEnv(cfg Config) *Env {
	dss := datagen.GenerateDatasets(datagen.Config{
		Seed:       cfg.DataSeed,
		NumObjects: cfg.ObjectsPerDataset,
		Bounds:     cfg.Bounds,
		Layout:     cfg.DataLayout,
	}, cfg.Datasets)
	return &Env{cfg: cfg, datasets: dss}
}

// NewEnvWithData builds an environment over externally supplied datasets
// (dataset i must be tagged with DatasetID i). The public API's comparison
// helper uses it.
func NewEnvWithData(cfg Config, datasets [][]object.Object) *Env {
	cfg.Datasets = len(datasets)
	return &Env{cfg: cfg, datasets: datasets}
}

// Deploy writes the datasets as raw files onto fresh storage (per the
// configured device/channel topology) and resets the clock, modelling data
// that already sits on disk.
func (e *Env) Deploy() (simdisk.Storage, []*rawfile.Raw, error) {
	dev := simdisk.NewStorage(e.cfg.Cost, e.cfg.CachePages, e.cfg.Devices, e.cfg.Channels, nil)
	raws := make([]*rawfile.Raw, len(e.datasets))
	for i, objs := range e.datasets {
		raw, err := rawfile.Write(dev, fmt.Sprintf("ds%d.raw", i), object.DatasetID(i), objs)
		if err != nil {
			return nil, nil, err
		}
		raws[i] = raw
	}
	dev.ResetClock()
	dev.ResetStats()
	dev.DropCaches()
	return dev, raws, nil
}

// NewEngine constructs the requested engine over the deployed raw files.
func (e *Env) NewEngine(kind EngineKind, dev simdisk.Storage, raws []*rawfile.Raw) (engine.Engine, error) {
	switch kind {
	case KindOdyssey:
		cfg := e.cfg.Odyssey
		cfg.DisableMerging = false
		return core.New(dev, raws, e.cfg.Bounds, cfg)
	case KindOdysseyNoMerge:
		cfg := e.cfg.Odyssey
		cfg.DisableMerging = true
		return core.New(dev, raws, e.cfg.Bounds, cfg)
	case KindFLATAin1:
		return flat.NewAllInOne(dev, raws, e.cfg.FLAT), nil
	case KindFLAT1fE:
		return flat.NewOneForEach(dev, raws, e.cfg.FLAT), nil
	case KindRTreeAin1:
		return rtree.NewAllInOne(dev, raws, e.cfg.RTree), nil
	case KindRTree1fE:
		return rtree.NewOneForEach(dev, raws, e.cfg.RTree), nil
	case KindGrid1fE:
		return grid.NewOneForEach(dev, raws, e.cfg.Bounds, e.gridConfig())
	case KindGridAin1:
		return grid.NewAllInOne(dev, raws, e.cfg.Bounds, e.gridConfig())
	case KindNaive:
		return engine.NewNaiveScan(raws), nil
	}
	return nil, fmt.Errorf("bench: unknown engine kind %q", kind)
}

// gridConfig derives the Grid baseline configuration, defaulting the memory
// budget to the paper's 1:5 memory-to-dataset ratio.
func (e *Env) gridConfig() grid.Config {
	budget := e.cfg.GridMemBudgetObjects
	if budget == 0 {
		budget = e.cfg.ObjectsPerDataset / 2
	}
	return grid.Config{CellsPerDim: e.cfg.GridCells, MemBudgetObjects: budget}
}

// Result is one engine's run over one workload.
type Result struct {
	Engine EngineKind
	// IndexTime is the simulated time of the upfront build (zero for
	// adaptive engines).
	IndexTime time.Duration
	// QueryTimes holds the simulated per-query latencies.
	QueryTimes []time.Duration
	// ObjectsReturned is the total result cardinality (sanity checking).
	ObjectsReturned int
	// Metrics carries Space Odyssey's internals when applicable.
	Metrics *core.Metrics
}

// QueryTotal sums the per-query times.
func (r Result) QueryTotal() time.Duration {
	var t time.Duration
	for _, q := range r.QueryTimes {
		t += q
	}
	return t
}

// Total is indexing plus querying.
func (r Result) Total() time.Duration { return r.IndexTime + r.QueryTotal() }

// QueriesAnsweredBy reports how many queries completed within the given
// simulated time from workload start (the paper's "Odyssey answers half the
// queries before Grid finishes building" comparisons).
func (r Result) QueriesAnsweredBy(deadline time.Duration) int {
	elapsed := r.IndexTime
	n := 0
	for _, q := range r.QueryTimes {
		elapsed += q
		if elapsed > deadline {
			break
		}
		n++
	}
	return n
}

// Run executes the full methodology for one engine: deploy raw files on a
// fresh device, build (timed), then run every query with caches dropped
// first (timed individually).
func (e *Env) Run(kind EngineKind, w workload.Workload) (Result, error) {
	dev, raws, err := e.Deploy()
	if err != nil {
		return Result{}, err
	}
	eng, err := e.NewEngine(kind, dev, raws)
	if err != nil {
		return Result{}, err
	}

	res := Result{Engine: kind}
	start := dev.Clock()
	if err := eng.Build(); err != nil {
		return Result{}, fmt.Errorf("%s build: %w", kind, err)
	}
	res.IndexTime = dev.Clock() - start

	res.QueryTimes = make([]time.Duration, 0, len(w.Queries))
	for _, q := range w.Queries {
		dev.DropCaches()
		t0 := dev.Clock()
		objs, err := eng.Query(q.Range, q.Datasets)
		if err != nil {
			return Result{}, fmt.Errorf("%s query %d: %w", kind, q.ID, err)
		}
		res.QueryTimes = append(res.QueryTimes, dev.Clock()-t0)
		res.ObjectsReturned += len(objs)
	}
	if ody, ok := eng.(*core.Odyssey); ok {
		m := ody.Metrics()
		res.Metrics = &m
	}
	return res, nil
}

// VerifyAgainstOracle replays the workload on the engine and the naive-scan
// oracle, failing on the first mismatch. Used by integration tests and the
// --verify flag of odyssey-bench.
func (e *Env) VerifyAgainstOracle(kind EngineKind, w workload.Workload) error {
	dev, raws, err := e.Deploy()
	if err != nil {
		return err
	}
	eng, err := e.NewEngine(kind, dev, raws)
	if err != nil {
		return err
	}
	if err := eng.Build(); err != nil {
		return err
	}
	oracle := engine.NewNaiveScan(raws)
	for _, q := range w.Queries {
		got, err := eng.Query(q.Range, q.Datasets)
		if err != nil {
			return fmt.Errorf("%s query %d: %w", kind, q.ID, err)
		}
		want, err := oracle.Query(q.Range, q.Datasets)
		if err != nil {
			return err
		}
		if !engine.SameObjects(got, want) {
			return fmt.Errorf("%s query %d: %d objects, oracle %d",
				kind, q.ID, len(got), len(want))
		}
	}
	return nil
}
