package odyssey

// Ablation benches for the design choices the README calls out, at reduced
// scale, and the go test -bench micro-metrics of the serving path. The
// paper's figures are cmd/odyssey-bench's (recorded in BENCH_paper.json). The
// ablations' interesting output is the custom metric `sim_sec/op` — the
// simulated disk time, which is what the paper reports — not the wall time
// Go measures.

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"spaceodyssey/internal/bench"
	"spaceodyssey/internal/core"
	"spaceodyssey/internal/geom"
	"spaceodyssey/internal/grid"
	"spaceodyssey/internal/simdisk"
	"spaceodyssey/internal/workload"
)

// benchEnvConfig is the reduced scale used by all ablation benches.
func benchEnvConfig() bench.Config {
	cfg := bench.DefaultConfig()
	cfg.Datasets = 6
	cfg.ObjectsPerDataset = 5000
	cfg.GridCells = 5
	return cfg
}

func benchWorkloadConfig() bench.WorkloadConfig {
	return bench.WorkloadConfig{Queries: 120, QueryVolumeFrac: 5e-5, Seed: 11}
}

// runOdysseyWorkload runs the full 120-query workload through Odyssey with
// the given engine config and reports simulated seconds.
func runOdysseyWorkload(b *testing.B, mutate func(*bench.Config), kind bench.EngineKind) {
	cfg := benchEnvConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	env := bench.NewEnv(cfg)
	spec, err := bench.FigureByID("fig4a")
	if err != nil {
		b.Fatal(err)
	}
	w, err := workload.Generate(workload.Config{
		Seed: 11, NumQueries: 120, NumDatasets: cfg.Datasets, DatasetsPerQuery: 3,
		QueryVolumeFrac: 5e-5, RangeDist: spec.RangeDist, CombDist: spec.CombDist,
		ClusterCenters: spec.ClusterCenters,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var sim float64
	for i := 0; i < b.N; i++ {
		res, err := env.Run(kind, w)
		if err != nil {
			b.Fatal(err)
		}
		sim = res.Total().Seconds()
	}
	b.ReportMetric(sim, "sim_sec/op")
}

// BenchmarkAblationMerging compares Odyssey with and without merging.
func BenchmarkAblationMerging(b *testing.B) {
	b.Run("merge=on", func(b *testing.B) {
		runOdysseyWorkload(b, nil, bench.KindOdyssey)
	})
	b.Run("merge=off", func(b *testing.B) {
		runOdysseyWorkload(b, nil, bench.KindOdysseyNoMerge)
	})
}

// BenchmarkAblationPPL compares ppl = 8 vs 64 convergence (§3.1.2).
func BenchmarkAblationPPL(b *testing.B) {
	for _, ppl := range []int{8, 27, 64} {
		b.Run(map[int]string{8: "ppl=8", 27: "ppl=27", 64: "ppl=64"}[ppl], func(b *testing.B) {
			runOdysseyWorkload(b, func(c *bench.Config) {
				c.Odyssey.Octree.PartitionsPerLevel = ppl
			}, bench.KindOdyssey)
		})
	}
}

// BenchmarkAblationRT sweeps the refinement threshold.
func BenchmarkAblationRT(b *testing.B) {
	for _, rt := range []float64{1, 4, 16} {
		b.Run(map[float64]string{1: "rt=1", 4: "rt=4", 16: "rt=16"}[rt], func(b *testing.B) {
			runOdysseyWorkload(b, func(c *bench.Config) {
				c.Odyssey.Octree.RefinementThreshold = rt
			}, bench.KindOdyssey)
		})
	}
}

// BenchmarkAblationMinComb sweeps the minimum merge combination size.
func BenchmarkAblationMinComb(b *testing.B) {
	for _, mc := range []int{2, 3, 4} {
		b.Run(map[int]string{2: "minC=2", 3: "minC=3", 4: "minC=4"}[mc], func(b *testing.B) {
			runOdysseyWorkload(b, func(c *bench.Config) {
				c.Odyssey.Merger.MinCombination = mc
			}, bench.KindOdyssey)
		})
	}
}

// BenchmarkAblationBudget sweeps the merge space budget (LRU pressure).
func BenchmarkAblationBudget(b *testing.B) {
	for _, pages := range []int64{0, 512, 64} {
		name := map[int64]string{0: "budget=unlimited", 512: "budget=512p", 64: "budget=64p"}[pages]
		b.Run(name, func(b *testing.B) {
			runOdysseyWorkload(b, func(c *bench.Config) {
				c.Odyssey.Merger.SpaceBudgetPages = pages
			}, bench.KindOdyssey)
		})
	}
}

// BenchmarkAblationLevelPolicy compares the paper's same-level merge rule
// against the §3.2.5 strategy kept here.
func BenchmarkAblationLevelPolicy(b *testing.B) {
	for _, policy := range []core.LevelPolicy{core.SameLevel, core.CoarsestCover} {
		b.Run(policy.String(), func(b *testing.B) {
			runOdysseyWorkload(b, func(c *bench.Config) {
				c.Odyssey.Merger.LevelPolicy = policy
			}, bench.KindOdyssey)
		})
	}
}

// BenchmarkAblationSegmentSharing measures §3.2.5's shared-segment space
// optimization.
func BenchmarkAblationSegmentSharing(b *testing.B) {
	for _, share := range []bool{false, true} {
		name := map[bool]string{false: "share=off", true: "share=on"}[share]
		b.Run(name, func(b *testing.B) {
			runOdysseyWorkload(b, func(c *bench.Config) {
				c.Odyssey.Merger.ShareSegments = share
			}, bench.KindOdyssey)
		})
	}
}

// BenchmarkAblationAdaptiveMT measures the §3.2.5 runtime threshold
// adaptation.
func BenchmarkAblationAdaptiveMT(b *testing.B) {
	for _, adaptive := range []bool{false, true} {
		name := map[bool]string{false: "mt=static", true: "mt=adaptive"}[adaptive]
		b.Run(name, func(b *testing.B) {
			runOdysseyWorkload(b, func(c *bench.Config) {
				c.Odyssey.Merger.AdaptiveThresholds = adaptive
			}, bench.KindOdyssey)
		})
	}
}

// BenchmarkAblationReplication compares the query-window extension (the
// paper's choice, following Stefanakis et al.) against object replication
// on the Grid baseline: replication stores objects once per overlapped cell
// and deduplicates at query time.
func BenchmarkAblationReplication(b *testing.B) {
	run := func(b *testing.B, replicate bool) {
		env := bench.NewEnv(benchEnvConfig())
		spec, err := bench.FigureByID("fig4a")
		if err != nil {
			b.Fatal(err)
		}
		w, err := bench.WorkloadForSpec(env, spec, benchWorkloadConfig(), 3)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		var sim float64
		for i := 0; i < b.N; i++ {
			dev, raws, err := env.Deploy()
			if err != nil {
				b.Fatal(err)
			}
			eng, err := grid.NewOneForEach(dev, raws, geom.UnitBox(), grid.Config{
				CellsPerDim: 5, Replicate: replicate,
			})
			if err != nil {
				b.Fatal(err)
			}
			if err := eng.Build(); err != nil {
				b.Fatal(err)
			}
			start := dev.Clock()
			for _, q := range w.Queries {
				dev.DropCaches()
				if _, err := eng.Query(q.Range, q.Datasets); err != nil {
					b.Fatal(err)
				}
			}
			sim = (dev.Clock() - start).Seconds()
		}
		b.ReportMetric(sim, "sim_sec/op")
	}
	b.Run("extension", func(b *testing.B) { run(b, false) })
	b.Run("replication", func(b *testing.B) { run(b, true) })
}

// BenchmarkBaselines runs every baseline on the fig4a workload for direct
// comparison in one table.
func BenchmarkBaselines(b *testing.B) {
	for _, kind := range []bench.EngineKind{
		bench.KindFLATAin1, bench.KindFLAT1fE, bench.KindRTreeAin1,
		bench.KindRTree1fE, bench.KindGrid1fE, bench.KindGridAin1,
	} {
		b.Run(string(kind), func(b *testing.B) {
			runOdysseyWorkload(b, nil, kind)
		})
	}
}

// BenchmarkExplorerQuery measures steady-state public-API query latency
// (wall time; the engine is converged so little refinement happens).
func BenchmarkExplorerQuery(b *testing.B) {
	ex, err := NewExplorer(Options{})
	if err != nil {
		b.Fatal(err)
	}
	data := GenerateDatasets(DataConfig{Seed: 3, NumObjects: 5000, Clusters: 5}, 3)
	for i, objs := range data {
		if err := ex.AddDataset(DatasetID(i), objs); err != nil {
			b.Fatal(err)
		}
	}
	q := Cube(V(0.5, 0.5, 0.5), 0.03)
	dss := []DatasetID{0, 1, 2}
	for i := 0; i < 10; i++ { // converge
		if _, err := ex.Query(q, dss); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.Query(q, dss); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServingHotQuery is the frozen benchmark's serve_hot workload at
// micro-benchmark scale, for profiling the cached query without patching the
// benchmark: the serving preset (background maintenance, scan sharing, the
// result cache), the layout converged on a pool of
// clustered queries and quiesced, the working set cached — so a query is
// routing, walks, cache hits and filters, zero device reads — driven from
// GOMAXPROCS goroutines at once.
//
//	go test -run '^$' -bench ServingHotQuery -cpuprofile cpu.out -mutexprofile mu.out .
func BenchmarkServingHotQuery(b *testing.B) {
	ex, err := NewExplorer(Options{
		Cost:             simdisk.ReducedScaleCostModel(),
		AsyncMaintenance: true,
		CacheResults:     true,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer ex.Close()
	const datasets = 6
	data := GenerateDatasets(DataConfig{Seed: 3, NumObjects: 20000, Clusters: 5}, datasets)
	for i, objs := range data {
		if err := ex.AddDataset(DatasetID(i), objs); err != nil {
			b.Fatal(err)
		}
	}
	w, err := GenerateWorkload(WorkloadConfig{
		Seed: 11, NumQueries: 400, NumDatasets: datasets, DatasetsPerQuery: 3,
		QueryVolumeFrac: 1e-4, RangeDist: RangeClustered, CombDist: CombZipf,
	})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	// Converge, then pass once more over the settled layout to cache it: a
	// refinement or a merge drops the cells it changed, so the last pass must
	// make none.
	moves := func() int { m := ex.Metrics(); return m.Refinements + m.PartitionsMerged }
	for pass := 0; ; pass++ {
		before := moves()
		for _, q := range w.Queries {
			if _, err := ex.QueryCtx(ctx, q.Range, q.Datasets); err != nil {
				b.Fatal(err)
			}
		}
		if err := ex.Quiesce(ctx); err != nil {
			b.Fatal(err)
		}
		if pass > 0 && moves() == before {
			break
		}
		if pass == 20 {
			b.Fatal("the layout is still moving after 20 passes")
		}
	}
	start := ex.CacheStats()
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			q := w.Queries[int(next.Add(1))%len(w.Queries)]
			if _, err := ex.QueryCtx(ctx, q.Range, q.Datasets); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	end := ex.CacheStats()
	b.ReportMetric(float64(end.ZeroReadQueries-start.ZeroReadQueries)/float64(b.N), "zero_read_frac")
	b.ReportMetric(float64(end.Hits-start.Hits)/float64(b.N), "cache_hits/op")
}

// BenchmarkParallelQuery measures concurrent serving: the same converged
// workload is driven serially and through QueryBatch pools of 1, 4 and 8
// workers over a real-time emulated disk (platter charges sleep their
// simulated duration, outside all locks), so worker pools genuinely overlap
// simulated I/O the way a real deployment overlaps device latency. It
// reports wall-clock throughput per configuration plus the 8-worker speedup
// over serial. The benchmark writes no file.
func BenchmarkParallelQuery(b *testing.B) {
	const nQueries = 96
	data := GenerateDatasets(DataConfig{Seed: 3, NumObjects: 4000, Clusters: 5}, 3)
	w, err := GenerateWorkload(WorkloadConfig{
		Seed: 11, NumQueries: nQueries, NumDatasets: 3, DatasetsPerQuery: 2,
		QueryVolumeFrac: 1e-4,
	})
	if err != nil {
		b.Fatal(err)
	}

	// newConverged builds a fresh Explorer, converges it on the workload
	// with the disk purely virtual (instant), then switches on real-time
	// emulation for the measured serving phase.
	newConverged := func() *Explorer {
		ex, err := NewExplorer(Options{
			Cost:               simdisk.ReducedScaleCostModel(),
			DropCachesPerQuery: true, // every query pays platter time, like the paper
		})
		if err != nil {
			b.Fatal(err)
		}
		for i, objs := range data {
			if err := ex.AddDataset(DatasetID(i), objs); err != nil {
				b.Fatal(err)
			}
		}
		for _, q := range w.Queries {
			if _, err := ex.Query(q.Range, q.Datasets); err != nil {
				b.Fatal(err)
			}
		}
		ex.SetRealTimeScale(1)
		return ex
	}

	run := func(workers int) (wall, sim time.Duration) {
		ex := newConverged()
		simStart := ex.Clock()
		t0 := time.Now()
		if workers == 0 {
			for _, q := range w.Queries {
				if _, err := ex.Query(q.Range, q.Datasets); err != nil {
					b.Fatal(err)
				}
			}
		} else {
			if _, err := ex.QueryBatch(w.Queries, workers); err != nil {
				b.Fatal(err)
			}
		}
		return time.Since(t0), ex.Clock() - simStart
	}

	configs := []int{0, 1, 4, 8} // 0 = serial baseline
	walls := make(map[int]time.Duration, len(configs))
	sims := make(map[int]time.Duration, len(configs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, workers := range configs {
			walls[workers], sims[workers] = run(workers)
		}
	}
	b.StopTimer()

	serial := walls[0]
	b.ReportMetric(float64(nQueries)/serial.Seconds(), "serial_q/s")
	b.ReportMetric(float64(nQueries)/walls[8].Seconds(), "8w_q/s")
	b.ReportMetric(serial.Seconds()/walls[8].Seconds(), "speedup_8w")
	b.ReportMetric(sims[0].Seconds(), "sim_sec_serial")
}

// BenchmarkChannelScaling measures how the multi-channel storage layer
// shrinks *simulated* time under parallel serving: the default miss-heavy
// workload (caches dropped before every query, so every query pays platter
// time) is replayed through an 8-worker pool on storage topologies from one
// single-head device up to a 2-device array with 4 channels each. With one
// channel every miss serializes on one seek queue, so sim_seconds barely
// moves with workers (BenchmarkParallelQuery); with C channels per device
// and D devices the simulated clock is the critical path across C*D heads
// and drops as the topology widens; the single-channel point also anchors
// the "bit-for-bit identical to the single-device model" guarantee. The
// benchmark writes no file.
func BenchmarkChannelScaling(b *testing.B) {
	const (
		nQueries = 96
		workers  = 8
		nDS      = 6
	)
	data := GenerateDatasets(DataConfig{Seed: 3, NumObjects: 3000, Clusters: 5}, nDS)
	w, err := GenerateWorkload(WorkloadConfig{
		Seed: 11, NumQueries: nQueries, NumDatasets: nDS, DatasetsPerQuery: 2,
		QueryVolumeFrac: 1e-4,
	})
	if err != nil {
		b.Fatal(err)
	}

	newConverged := func(devices, channels int) *Explorer {
		ex, err := NewExplorer(Options{
			Cost:               simdisk.ReducedScaleCostModel(),
			DropCachesPerQuery: true, // miss-heavy: every query pays platter time
			Devices:            devices,
			Channels:           channels,
		})
		if err != nil {
			b.Fatal(err)
		}
		for i, objs := range data {
			if err := ex.AddDataset(DatasetID(i), objs); err != nil {
				b.Fatal(err)
			}
		}
		for _, q := range w.Queries {
			if _, err := ex.Query(q.Range, q.Datasets); err != nil {
				b.Fatal(err)
			}
		}
		ex.SetRealTimeScale(1)
		// Measure the serving phase from a zeroed clock: on multi-channel
		// topologies, deltas across the imbalanced convergence phase are
		// shadowed by the busiest channel's head start.
		ex.ResetClock()
		return ex
	}

	type topo struct{ C, D int }
	configs := []topo{{1, 1}, {2, 1}, {4, 1}, {1, 2}, {2, 2}, {4, 2}}
	sims := make(map[topo]time.Duration, len(configs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, tc := range configs {
			ex := newConverged(tc.D, tc.C)
			if _, err := ex.QueryBatch(w.Queries, workers); err != nil {
				b.Fatal(err)
			}
			sims[tc] = ex.Clock()
		}
	}
	b.StopTimer()

	base := sims[topo{1, 1}]
	b.ReportMetric(base.Seconds(), "sim_sec_c1d1")
	b.ReportMetric(sims[topo{4, 2}].Seconds(), "sim_sec_c4d2")
	b.ReportMetric(base.Seconds()/sims[topo{4, 2}].Seconds(), "sim_speedup_c4d2")
}

// BenchmarkMergeRouting measures the merger's directory lookup.
func BenchmarkMergeRouting(b *testing.B) {
	env := bench.NewEnv(benchEnvConfig())
	spec, _ := bench.FigureByID("fig4a")
	w, err := workload.Generate(workload.Config{
		Seed: 13, NumQueries: 60, NumDatasets: 6, DatasetsPerQuery: 4,
		QueryVolumeFrac: 5e-5, RangeDist: spec.RangeDist, CombDist: spec.CombDist,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := env.Run(bench.KindOdyssey, w); err != nil {
			b.Fatal(err)
		}
	}
}
