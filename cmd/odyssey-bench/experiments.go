package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	odyssey "spaceodyssey"
	"spaceodyssey/cluster"
	"spaceodyssey/internal/bench"
	"spaceodyssey/internal/workload"
)

// experiment is one row of the table: what -experiment NAME runs.
type experiment struct {
	name string // the -experiment value
	// id is the "experiment" field of the row's JSON artifact: how validate
	// finds a file's row.
	id string
	// title opens the stdout banner of a row that runs on a fixture; shape
	// is the workload drawn for it (nil: the row draws its own).
	title string
	shape *workload.Config
	// flags are the flags the row reads; setting any other is an error, so
	// a flag never silently measures something else.
	flags   []string
	workers int // pool size when -parallel is not given
	run     func(p *params, f *fixture, queries []odyssey.Query) report
	// report returns an empty report for validate to decode into (nil: the
	// row prints tables and writes no artifact).
	report func() report
}

var (
	sizing   = []string{"experiment", "datasets", "objects", "queries", "qvol", "seed", "data-seed", "layout", "seek-us", "transfer-us"}
	topology = []string{"devices", "channels"}
	pooled   = []string{"parallel", "realtime-scale", "json"}
	figure   = slices.Concat(sizing, topology, []string{"grid-cells", "ks", "verify"})
)

// Workload shapes. The fig4a distributions are the paper's default
// exploration; the zipf one is what a shared archive portal sees.
var (
	fig4aShape = func() workload.Config {
		spec := ok(bench.FigureByID("fig4a"))
		return workload.Config{RangeDist: spec.RangeDist, CombDist: spec.CombDist, ClusterCenters: spec.ClusterCenters}
	}()
	// Zipf hot regions: a few regions and dataset bundles draw most of the
	// traffic, with a long tail that keeps some datasets unrefined.
	zipfShape = workload.Config{
		RangeDist: workload.RangeClustered, CombDist: workload.CombZipf,
		ClusterCenters: 4, SigmaFactor: 0.2,
	}
)

// figureIDs is what "-experiment all" expands to.
var figureIDs = []string{"fig4a", "fig4b", "fig4c", "fig4d", "fig5a", "fig5b", "fig5c"}

// experiments is the table. The figure rows reproduce the paper in
// simulated seconds; every other row carries evidence the repository
// benchmark (benchmark/) does not — the cluster's hedged reads, the QoS
// throttle, the tuners — and exists for its invariant, which its report's
// check asserts.
var experiments []experiment

func init() { // not an initializer: validate's row reads the table it is in
	experiments = []experiment{
		{
			name: "async", id: "async-maintenance", title: "async-maintenance comparison", shape: &fig4aShape, workers: 8,
			flags: slices.Concat(sizing, topology, pooled, []string{"maintworkers", "maintbudget"}),
			run:   runAsync, report: func() report { return new(asyncReport) },
		},
		{
			// Measured on the instant disk with a fixed submitter count: no
			// pool flags.
			name: "cluster", id: "cluster-serving", title: "cluster serving", shape: &zipfShape, workers: 8,
			flags: slices.Concat(sizing, topology, []string{"json", "shards", "replicas"}),
			run:   runCluster, report: func() report { return new(clusterReport) },
		},
		{
			// Fewer workers than a burst: the dispatcher's group-sorted flush
			// then decides which queries run concurrently, which is where
			// batching earns its sharing wins.
			name: "scenarios", id: "scenario-lab", title: "scenario lab", workers: 4,
			flags: slices.Concat(sizing, topology, pooled, []string{"scenario", "adaptive", "gap"}),
			run:   runScenarios, report: func() report { return new(scenariosReport) },
		},
		{name: "validate", flags: []string{"experiment"}, run: runValidate},
	}
	// The figure rows of one invocation write one report between them.
	for _, id := range figureIDs {
		experiments = append(experiments, experiment{
			name: id, id: "paper", flags: append(slices.Clone(figure), "json"),
			run: runFigure(id), report: func() report { return new(paperReport) },
		})
	}
	experiments = append(experiments, experiment{name: "gridsweep", flags: figure, run: runGridSweep})
}

func findExperiment(match func(experiment) bool) (experiment, bool) {
	i := slices.IndexFunc(experiments, match)
	if i < 0 {
		return experiment{}, false
	}
	return experiments[i], true
}

func (e experiment) unread(set []string) (string, bool) {
	i := slices.IndexFunc(set, func(name string) bool { return !slices.Contains(e.flags, name) })
	if i < 0 {
		return "", false
	}
	return set[i], true
}

// execute runs one row and returns its check's verdict — artifact written
// first, so a failing report can be read.
func (e experiment) execute(p *params) error {
	if p.workers == 0 {
		p.workers = e.workers
	}
	if !slices.Contains(e.flags, "realtime-scale") {
		p.scale = 0 // the row runs on the instant disk
	}
	var f *fixture
	var queries []odyssey.Query
	if e.title != "" {
		f = newFixture(p.cfg)
		if e.shape != nil {
			queries = generate(p.wcfg, p.cfg.Datasets, p.wcfg.Seed, *e.shape)
		}
		fmt.Printf("%s: %d datasets x %d objects, %d queries, %d workers, realtime x%g\n",
			e.title, p.cfg.Datasets, p.cfg.ObjectsPerDataset, p.wcfg.Queries, p.workers, p.scale)
		fmt.Printf("storage: %d device(s) x %d channel(s); set: -%s\n\n",
			p.cfg.Devices, p.cfg.Channels, strings.Join(p.set, " -"))
	}
	p.header = header{
		Experiment: e.id, Devices: p.cfg.Devices, Channels: p.cfg.Channels,
		Workers: p.workers, Queries: p.wcfg.Queries, RealtimeScale: p.scale,
	}
	rep := e.run(p, f, queries)
	if rep == nil {
		return nil
	}
	writeJSON(p.jsonPath, rep)
	return rep.check()
}

func ratio(num, den float64) float64 {
	if den <= 0 {
		return 0
	}
	return num / den
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// engine is the option preset behind -maintworkers; more is the row's own
// setting on top.
func (p *params) engine(more func(*odyssey.Options)) func(*odyssey.Options) {
	return func(o *odyssey.Options) {
		o.MaintenanceWorkers = p.maintWorkers
		if more != nil {
			more(o)
		}
	}
}

// asyncPasses caps the async row's replays, the cold measured pass included.
const asyncPasses = 10

// runAsync compares inline against background layout maintenance: both
// modes serve the same COLD workload through the pool, so the measured pass
// includes level-0 builds, refinements and merges. In sync mode the unlucky
// queries pay for them inline; in async mode they answer from the current
// layout while a scheduler converges it. Both then keep replaying through
// the pool until the layout is quiescent: deferred maintenance is not free,
// it is just off the query path, and time-to-convergence shows its price.
func runAsync(p *params, f *fixture, queries []odyssey.Query) report {
	if p.cfg.Datasets < 2 || p.maintBudget <= 0 || p.maintBudget >= 1 {
		fatalf("the async row needs -datasets >= 2 (its contention leg serves one half while churning the other) and -maintbudget in (0,1)")
	}
	mode := func(name string, async bool) asyncModeReport {
		ex := f.explorer(p.engine(func(o *odyssey.Options) { o.AsyncMaintenance = async }))
		defer shut(ex)
		ex.SetRealTimeScale(p.scale)
		t0 := time.Now()
		cold := replay(ex, queries, replayOpts{workers: p.workers})
		passes, converged := converge(ex, queries, asyncPasses-1, p.workers)
		convergedWall := time.Since(t0)
		must(ex.MaintenanceErr())
		m, disk := ex.Metrics(), ex.DiskStats()
		rep := asyncModeReport{
			timing: cold.timing(), latencyReport: cold.latency(serviceTime),
			Converged: converged, ConvergenceWallSeconds: convergedWall.Seconds(), ConvergencePasses: 1 + passes,
			Refinements: m.Refinements, PartitionsMerged: m.PartitionsMerged, MergeFiles: ex.MergeFileCount(),
			ThrottledOps: disk.ThrottledOps, QueuedDelaySeconds: disk.QueuedDelay.Seconds(),
		}
		fmt.Printf("%-5s measured pass: %8.3fs wall  %8.3fs simulated  %7.1f q/s\n      latency: %v\n",
			name, rep.WallSeconds, rep.SimSeconds, ratio(float64(len(queries)), rep.WallSeconds), rep.latencyReport)
		fmt.Printf("      converged after %d pass(es), %.3fs wall (%d refinements, %d partitions merged, %d merge files)\n",
			rep.ConvergencePasses, rep.ConvergenceWallSeconds, m.Refinements, m.PartitionsMerged, rep.MergeFiles)
		if async {
			st := ex.MaintenanceStats()
			rep.Maintenance = &maintenanceReport{
				Queued: st.Queued, Coalesced: st.Coalesced, Completed: st.Completed, Failed: st.Failed, Dropped: st.Dropped,
				RefineTasks: st.RefineTasks, MergeTasks: st.MergeTasks,
				Refinements: st.Refinements, QueueDepthHighWater: st.QueueDepthHighWater,
			}
			fmt.Printf("      maintenance: %d queued, %d coalesced, %d completed, %d refine / %d merge tasks, queue high-water %d\n",
				st.Queued, st.Coalesced, st.Completed, st.RefineTasks, st.MergeTasks, st.QueueDepthHighWater)
		}
		fmt.Println()
		return rep
	}
	rep := &asyncReport{header: p.header, MaintenanceWorkers: p.maintWorkers, Sync: mode("sync", false), Async: mode("async", true)}
	rep.P99Speedup = ratio(rep.Sync.P99, rep.Async.P99)
	fmt.Printf("p99 latency: sync %.2fms  async %.2fms  (%.2fx)\n\n", 1e3*rep.Sync.P99, 1e3*rep.Async.P99, rep.P99Speedup)
	rep.Contention = runContention(p, f)
	return rep
}

// runContention is the async row's second leg (see contentionReport). The
// foreground workload touches only the first half of the datasets, the churn
// only the second. Per leg (budget off, then -maintbudget) a fresh async
// engine converges the foreground datasets with emulation off (setup, not
// measurement); then a 2-worker side pool fires the cold churn batch, every
// query scheduling refinement and merge work, while the main pool serves the
// paced foreground workload. The foreground layout no longer changes, so any
// latency difference between the legs is maintenance interference —
// channel-frontier pushes lengthening foreground emulation sleeps, plus CPU
// and lock pressure — which the throttle confines to foreground-idle gaps.
func runContention(p *params, f *fixture) contentionReport {
	fgN := p.cfg.Datasets / 2
	bgN := p.cfg.Datasets - fgN
	fg := generate(p.wcfg, fgN, p.wcfg.Seed+101, fig4aShape)
	churn := generate(p.wcfg, bgN, p.wcfg.Seed+202, fig4aShape)
	// Shift the churn workload onto the background half of the datasets.
	// Copy each combination first: generated queries may share one
	// underlying slice (the heavy-hitter combination), and shifting in place
	// would compound across the queries aliasing it.
	for i := range churn {
		shifted := slices.Clone(churn[i].Datasets)
		for j := range shifted {
			shifted[j] += odyssey.DatasetID(fgN)
		}
		churn[i].Datasets = shifted
	}
	fmt.Printf("contention comparison: foreground = %d converged dataset(s), churn = %d cold queries over %d dataset(s), budget %.2f\n",
		fgN, len(churn), bgN, p.maintBudget)

	var gap time.Duration // derived once in the first leg, shared by both
	leg := func(name string, budget float64) contentionLegReport {
		ex := f.explorer(p.engine(func(o *odyssey.Options) { o.AsyncMaintenance = true }))
		defer shut(ex)
		converge(ex, fg, asyncPasses, 0)
		ex.SetRealTimeScale(p.scale)
		if gap == 0 {
			// Capacity probe (first leg only): one unpaced pooled replay of
			// the converged foreground workload, no churn. Open-loop arrivals
			// in both legs then target ~60% of that capacity.
			probe := replay(ex, fg, replayOpts{workers: p.workers})
			gap = time.Duration(float64(probe.wall) / (0.6 * float64(len(fg))))
			fmt.Printf("  open-loop arrival gap %v (~60%% of measured foreground capacity)\n", gap.Round(10*time.Microsecond))
		}
		ex.SetMaintenanceBudget(budget)
		before := ex.DiskStats()
		churned := make(chan struct{})
		go func() {
			defer close(churned)
			replay(ex, churn, replayOpts{workers: 2, overlapped: true})
		}()
		served := replay(ex, fg, replayOpts{workers: p.workers, gap: gap, overlapped: true})
		<-churned
		// Drain deferred maintenance at full speed before tearing down.
		ex.SetRealTimeScale(0)
		ex.SetMaintenanceBudget(0)
		must(ex.Quiesce(context.Background()))
		must(ex.MaintenanceErr())
		after := ex.DiskStats()
		rep := contentionLegReport{
			MaintenanceBudget: budget, latencyReport: served.latency(serviceTime),
			ThrottledOps:       after.ThrottledOps - before.ThrottledOps,
			QueuedDelaySeconds: (after.QueuedDelay - before.QueuedDelay).Seconds(),
		}
		fmt.Printf("%-5s fg latency: %v   (%d maintenance waits gated)\n", name, rep.latencyReport, rep.ThrottledOps)
		return rep
	}
	unthr, thr := leg("unthr", 0), leg("thrtl", p.maintBudget)
	fmt.Printf("\nfg p99 under churn: unthrottled %.2fms  budget %.2f %.2fms  (%.2fx)\n\n",
		1e3*unthr.P99, p.maintBudget, 1e3*thr.P99, ratio(unthr.P99, thr.P99))
	return contentionReport{
		MaintenanceBudget: p.maintBudget, ArrivalGapSeconds: gap.Seconds(),
		ForegroundDatasets: fgN, BackgroundDatasets: bgN, BackgroundQueries: len(churn),
		Unthrottled: unthr, Throttled: thr,
		FgP99UnderContentionSeconds: unthr.P99, FgP99ThrottledSeconds: thr.P99,
		P99Improvement: ratio(unthr.P99, thr.P99),
	}
}

// runCluster replays the zipf workload through a sharded, replicated Router
// — clean, then through a slow-shard storm unhedged and hedged — against a
// single Explorer over the union of the datasets as the oracle. Every answer
// must fingerprint identical to the oracle's, and the cluster-wide charge
// ledger must conserve exactly: ChargedSim + WastedSim equals the shards'
// device-side charges — hedging re-routes work, it never double-counts it.
// Crash windows are deterministic in the query ordinal and are held by
// cluster's TestCrashWindowsMatchClosedForm, not here.
func runCluster(p *params, f *fixture, queries []odyssey.Query) report {
	const slowDelay = 25 * time.Millisecond
	if p.shards < 2 || p.replicas < 1 {
		fatalf("-shards must be >= 2 and -replicas >= 1")
	}
	n := len(queries)
	// The one row that keeps the buffer cache across queries — the setting
	// BENCH_cluster.json's baseline_sim_seconds was recorded under.
	warm := func(o *odyssey.Options) { o.DropCachesPerQuery = false }
	fmt.Printf("%d shards, R=%d\n\n", p.shards, p.replicas)

	base, converged := f.measure(queries, warm, 0, replayOpts{})
	basePrints := base.prints()
	fmt.Printf("%-15s %d/%d served, sim %.3fs (single Explorer, serial)\n", "baseline", n, n, base.sim.Seconds())

	newRouter := func(hedged bool) *cluster.Router {
		r := ok(cluster.New(cluster.Config{
			Shards: p.shards, Replicas: p.replicas, Options: f.options(warm),
			Hedge: cluster.HedgeConfig{Enabled: hedged},
		}))
		f.load(r)
		// A Router converges like a single Explorer, on its shards' summed
		// adaptation counters.
		_, quiet := untilQuiet(steadyPasses, func() (sum odyssey.Metrics) {
			for _, m := range r.ShardMetrics() {
				sum.Refinements += m.Refinements
				sum.PartitionsMerged += m.PartitionsMerged
				sum.MergeEvictions += m.MergeEvictions
			}
			return sum
		}, func() {
			direct(r, queries, 1, true)
			must(r.Quiesce(context.Background()))
		})
		converged = converged && quiet
		return r
	}
	phase := func(name string, r *cluster.Router) clusterPhaseReport {
		st0 := r.Stats()
		ps := direct(r, queries, p.workers, false)
		st := r.Stats()
		rep := clusterPhaseReport{
			WallSeconds: ps.wall.Seconds(), ResultsIdentical: samePrints(ps.prints(), basePrints),
			latencyReport: ps.latency(serviceTime),
			HedgesFired:   st.HedgesFired - st0.HedgesFired, HedgeWins: st.HedgeWins - st0.HedgeWins,
		}
		for _, o := range ps.outcomes {
			if o.err == nil {
				rep.Served++
			} else {
				rep.Failed++
			}
		}
		fmt.Printf("%-15s %d/%d served  wall %.3fs  %v  hedges %d (%d won)  identical %v\n",
			name, rep.Served, n, rep.WallSeconds, rep.latencyReport, rep.HedgesFired, rep.HedgeWins, rep.ResultsIdentical)
		return rep
	}
	// conservation closes r and compares the cluster charge ledger with the
	// shards' device-side charges.
	conservation := func(r *cluster.Router) (charged, wasted, ledger time.Duration) {
		shut(r)
		disks := r.ShardDiskStats()
		for si, dev := range r.ShardChannelStats() {
			for _, chans := range dev {
				for _, ch := range chans {
					ledger += ch.Busy
				}
			}
			ledger += time.Duration(disks[si].CacheHits)*f.base.Cost.CacheHit + disks[si].QueuedDelay
		}
		st := r.Stats()
		return st.ChargedSim, st.WastedSim, ledger
	}

	r := newRouter(true)
	rep := &clusterReport{
		header: p.header,
		Shards: p.shards, Replicas: p.replicas, Datasets: len(f.data),
		BaselineSimSeconds: base.sim.Seconds(), Clean: phase("clean", r),
	}
	// Slow-shard storm, unhedged first (a fresh Router with hedging off,
	// converged the same way), then hedged on the main Router: identical
	// storms, so the p99 delta is the hedging win.
	slow := func(r *cluster.Router) {
		r.SetShardFaultPlan(cluster.ShardFaultPlan{Faults: []cluster.ShardFault{{
			Shard: 0, SlowAfter: r.Stats().Queries, SlowFor: int64(n), SlowDelay: slowDelay,
		}}})
	}
	ru := newRouter(false)
	slow(ru)
	rep.SlowUnhedged = phase("slow-unhedged", ru)
	if charged, wasted, ledger := conservation(ru); charged+wasted != ledger {
		fatalf("unhedged charge conservation broken: charged %v + wasted %v != device ledger %v", charged, wasted, ledger)
	}
	slow(r)
	rep.SlowHedged = phase("slow-hedged", r)
	rep.HedgeP99Speedup = ratio(rep.SlowUnhedged.P99, rep.SlowHedged.P99)
	fmt.Printf("\nslow-shard storm p99: unhedged %.1fms, hedged %.1fms (speedup x%.1f)\n",
		1e3*rep.SlowUnhedged.P99, 1e3*rep.SlowHedged.P99, rep.HedgeP99Speedup)
	charged, wasted, ledger := conservation(r)
	rep.Converged = converged
	rep.ChargedSimSeconds, rep.WastedSimSeconds, rep.DeviceLedgerSeconds = charged.Seconds(), wasted.Seconds(), ledger.Seconds()
	rep.ChargeConserved = charged+wasted == ledger
	fmt.Printf("charge ledger: attributed %.3fs + wasted %.3fs vs device %.3fs — conserved: %v\n\n",
		charged.Seconds(), wasted.Seconds(), ledger.Seconds(), rep.ChargeConserved)
	return rep
}

type scenarioMode struct {
	name     string
	window   time.Duration
	capacity int64
	adaptive bool
}

// scenarioModes is the sweep, the adaptive mode last. The static grid crosses
// both batch-window extremes with both capacity extremes: the small capacity
// thrashes on any repeating hotspot; the large one comfortably holds a whole
// phase's working set — but not every phase of a drifting workload at once,
// which is exactly the regime where frequency-kept heat goes stale and decay
// earns its keep. The adaptive mode is static-w4-large plus the two
// self-tuning loops: the cache tuner, whose range around that start is
// [1,024, 65,536] objects, and heat decay.
var scenarioModes = []scenarioMode{
	{name: "static-w0-small", window: 0, capacity: 16},
	{name: "static-w0-large", window: 0, capacity: 1 << 10},
	{name: "static-w4-small", window: 4 * time.Millisecond, capacity: 16},
	{name: "static-w4-large", window: 4 * time.Millisecond, capacity: 1 << 10},
	{name: "adaptive", window: 4 * time.Millisecond, capacity: 1 << 10, adaptive: true},
}

// runScenarios is the scenario lab: each named scenario of
// internal/workload's matrix is replayed open-loop — queries submitted on
// the scenario's own arrival pacing, in units of -gap — once per serving
// mode: the static grid, and with -adaptive the self-tuning mode (auto-sized
// result cache + heat decay on the fixed window). Latency is taken
// from scheduled arrival, and every mode must return identical results.
func runScenarios(p *params, f *fixture, _ []odyssey.Query) report {
	names := []string{p.scenario}
	if p.scenario == "all" {
		names = workload.ScenarioNames()
	} else if workload.ScenarioDescription(p.scenario) == "" {
		fatalf("unknown scenario %q (want one of %v or 'all')", p.scenario, workload.ScenarioNames())
	}
	rep := &scenariosReport{header: p.header, GapMS: millis(p.gap)}
	for _, name := range names {
		w := ok(workload.GenerateScenario(name, workload.ScenarioConfig{
			Seed: p.wcfg.Seed, NumQueries: p.wcfg.Queries,
			NumDatasets: p.cfg.Datasets, DatasetsPerQuery: min(3, p.cfg.Datasets),
			Bounds: p.cfg.Bounds, QueryVolumeFrac: p.wcfg.QueryVolumeFrac,
		}))
		fmt.Printf("--- %s: %s\n", name, w.Description)
		srep := scenarioReport{Scenario: name, Description: w.Description, Queries: len(w.Queries), ResultsIdentical: true}
		var basePrints map[int]uint64
		for _, mode := range scenarioModes {
			if mode.adaptive && !p.adaptive {
				continue
			}
			mrep, prints := runScenarioMode(p, f, w, mode)
			srep.Modes = append(srep.Modes, mrep)
			if basePrints == nil {
				basePrints = prints
			}
			srep.ResultsIdentical = srep.ResultsIdentical && samePrints(prints, basePrints)
		}
		rep.Scenarios = append(rep.Scenarios, srep)
		fmt.Println()
	}
	return rep
}

// runScenarioMode measures one mode on one scenario. The replay starts
// cold-cache: fresh-cache serving against a warm layout, so repeats in the
// scenario stream have to re-earn their hits under each mode's capacity.
func runScenarioMode(p *params, f *fixture, w workload.ScenarioWorkload, mode scenarioMode) (scenarioModeReport, map[int]uint64) {
	ps, converged := f.measure(w.Queries, func(o *odyssey.Options) {
		o.ShareScans, o.CacheResults, o.CacheCapacity = true, true, mode.capacity
		if mode.adaptive {
			o.AdaptiveCache, o.HeatHalfLife = true, 64
		}
	}, p.scale, replayOpts{workers: p.workers, admission: odyssey.AdmissionConfig{BatchWindow: mode.window}, gap: p.gap, gaps: w.Gaps, coldCache: true})
	cs, cs0 := ps.after.cache, ps.before.cache
	rep := scenarioModeReport{
		Mode: mode.name, BatchWindowMS: millis(mode.window), Adaptive: mode.adaptive, CacheCapacity: mode.capacity,
		Converged: converged, timing: ps.timing(), PagesRead: ps.after.disk.PageReads,
		Refinements:   ps.after.metrics.Refinements - ps.before.metrics.Refinements,
		Merges:        ps.after.metrics.PartitionsMerged - ps.before.metrics.PartitionsMerged,
		latencyReport: ps.latency(func(o outcome) time.Duration { return o.e2e }),
		CacheHits:     cs.Hits - cs0.Hits + cs.ContainmentHits - cs0.ContainmentHits,
		GhostHits:     cs.GhostHits - cs0.GhostHits, FinalCapacity: cs.Capacity,
		CapGrows: cs.CapacityGrows - cs0.CapacityGrows, CapShrinks: cs.CapacityShrinks - cs0.CapacityShrinks,
		Batches: ps.admission.Batches,
	}
	fmt.Printf("%-16s %v  %7d pages  cap %6d\n", mode.name, rep.latencyReport, rep.PagesRead, rep.FinalCapacity)
	return rep, ps.prints()
}

func runValidate(p *params, _ *fixture, _ []odyssey.Query) report {
	if len(p.args) == 0 {
		fatalf("validate needs the artifact files to check as arguments")
	}
	for _, path := range p.args {
		if err := validateFile(path); err != nil {
			fatalf("%s: %v", path, err)
		}
		fmt.Printf("%s ok\n", path)
	}
	return nil
}

// validateFile decodes an artifact — strictly, so a renamed field is caught
// — into the report of the row that wrote it, runs that row's check, and
// holds the file to the complete recording (see complete).
func validateFile(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	// A report names its row in "experiment".
	var obj struct{ Experiment string }
	if err := json.Unmarshal(data, &obj); err != nil {
		return err
	}
	row, found := findExperiment(func(e experiment) bool { return e.report != nil && e.id == obj.Experiment })
	if !found {
		return fmt.Errorf("no experiment writes %q reports", obj.Experiment)
	}
	rep := row.report()
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(rep); err != nil {
		return err
	}
	if err := rep.check(); err != nil {
		return err
	}
	if c, ok := rep.(interface{ complete() error }); ok {
		return c.complete()
	}
	return nil
}

// runFigure reproduces one of the paper's figures: a text table of simulated
// seconds on stdout, the full result added to the invocation's paper report.
// It returns the report so far, which execute rewrites and re-checks after
// every figure: a run that stops early leaves the figures it finished.
func runFigure(id string) func(*params, *fixture, []odyssey.Query) report {
	return func(p *params, _ *fixture, _ []odyssey.Query) report {
		env, spec := p.environment(), ok(bench.FigureByID(id))
		if p.paper == nil {
			p.paper = &paperReport{
				header: p.header, Datasets: p.cfg.Datasets, Objects: p.cfg.ObjectsPerDataset,
				QueryVolumeFrac: p.wcfg.QueryVolumeFrac, Seed: p.wcfg.Seed, DataSeed: p.cfg.DataSeed,
				Layout: p.layout, SeekUS: p.seekUS, TransferUS: p.transferUS, GridCells: p.cfg.GridCells,
			}
		}
		start := time.Now()
		switch {
		case strings.HasPrefix(id, "fig4"):
			res := ok(bench.Figure4(env, spec, p.wcfg, p.ks, nil))
			bench.PrintFigure4(os.Stdout, res)
			p.paper.Figure4 = append(p.paper.Figure4, res)
		case id == "fig5c":
			res := ok(bench.Figure5c(env, p.wcfg))
			bench.PrintFigure5c(os.Stdout, res)
			p.paper.Figure5c = &res
		default: // fig5a, fig5b
			res := ok(bench.Figure5(env, spec, p.wcfg, nil))
			bench.PrintFigure5(os.Stdout, res)
			p.paper.Figure5 = append(p.paper.Figure5, res)
		}
		fmt.Printf("(%s completed in %.1fs wall time)\n\n", id, time.Since(start).Seconds())
		return p.paper
	}
}

// runGridSweep is the parameter sweep the grid baseline's defaults come from.
func runGridSweep(p *params, _ *fixture, _ []odyssey.Query) report {
	bench.PrintGridSweep(os.Stdout, ok(bench.GridSweep(p.environment(), p.wcfg, nil, nil)))
	fmt.Println()
	return nil
}

// environment generates the figure rows' datasets once per invocation and,
// with -verify, checks every engine against the oracle on a reduced
// workload before trusting the numbers.
func (p *params) environment() *bench.Env {
	if p.env != nil {
		return p.env
	}
	p.env = bench.NewEnv(p.cfg)
	fmt.Printf("environment: %d datasets x %d objects (%s), %d queries, qvol=%g, grid=%d^3\n\n",
		p.cfg.Datasets, p.cfg.ObjectsPerDataset, p.cfg.DataLayout, p.wcfg.Queries, p.wcfg.QueryVolumeFrac, p.cfg.GridCells)
	if !p.verify {
		return p.env
	}
	fmt.Println("verifying engines against the naive-scan oracle...")
	small := p.wcfg
	small.Queries = min(small.Queries, 100)
	w := ok(bench.WorkloadForSpec(p.env, ok(bench.FigureByID("fig4a")), small, 3))
	for _, kind := range []bench.EngineKind{
		bench.KindOdyssey, bench.KindOdysseyNoMerge, bench.KindFLATAin1,
		bench.KindFLAT1fE, bench.KindRTreeAin1, bench.KindRTree1fE,
		bench.KindGrid1fE, bench.KindGridAin1,
	} {
		if err := p.env.VerifyAgainstOracle(kind, w); err != nil {
			fatalf("VERIFICATION FAILED: %v", err)
		}
		fmt.Printf("  %-16s ok\n", kind)
	}
	fmt.Println()
	return p.env
}
