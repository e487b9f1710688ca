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
	figure   = slices.Concat(sizing, topology, []string{"grid-cells", "ks", "verify"})
)

// zipfShape is the cluster row's workload, what a shared archive portal
// sees: a few regions and dataset bundles draw most of the traffic, with a
// long tail that keeps some datasets unrefined.
var zipfShape = workload.Config{
	RangeDist: workload.RangeClustered, CombDist: workload.CombZipf,
	ClusterCenters: 4, SigmaFactor: 0.2,
}

// figureIDs is what "-experiment all" expands to.
var figureIDs = []string{"fig4a", "fig4b", "fig4c", "fig4d", "fig5a", "fig5b", "fig5c"}

// experiments is the table. The figure rows reproduce the paper in
// simulated seconds; every other row carries evidence the repository
// benchmark (benchmark/) does not — the cluster's oracle identity and charge
// conservation, the tuners — and exists for its invariant, which its
// report's check asserts.
var experiments []experiment

func init() { // not an initializer: validate's row reads the table it is in
	experiments = []experiment{
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
			flags: slices.Concat(sizing, topology, []string{"parallel", "realtime-scale", "json", "scenario", "adaptive", "gap"}),
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

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runCluster replays the zipf workload through a sharded, replicated Router
// against a single Explorer over the union of the datasets as the oracle.
// Every answer must fingerprint identical to the oracle's, and the
// cluster-wide charge ledger must conserve exactly: ChargedSim + WastedSim
// equals the shards' device-side charges, and a fault-free replay wastes
// nothing. Crash windows are deterministic in the query ordinal and are held
// by cluster's TestCrashWindowsMatchClosedForm, not here.
func runCluster(p *params, f *fixture, queries []odyssey.Query) report {
	if p.shards < 2 || p.replicas < 1 {
		fatalf("-shards must be >= 2 and -replicas >= 1")
	}
	n := len(queries)
	// The one row that keeps the buffer cache across queries — the setting
	// BENCH_cluster.json's baseline_sim_seconds was recorded under.
	warm := func(o *odyssey.Options) { o.DropCachesPerQuery = false }
	fmt.Printf("%d shards, R=%d\n\n", p.shards, p.replicas)

	base, converged := f.measure(queries, warm, 0, replayOpts{})
	fmt.Printf("%-15s %d/%d served, sim %.3fs (single Explorer, serial)\n", "baseline", n, n, base.sim.Seconds())

	r := ok(cluster.New(cluster.Config{Shards: p.shards, Replicas: p.replicas, Options: f.options(warm)}))
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

	ps := direct(r, queries, p.workers, false)
	clean := clusterPhaseReport{
		WallSeconds: ps.wall.Seconds(), ResultsIdentical: samePrints(ps.prints(), base.prints()),
		latencyReport: ps.latency(serviceTime),
	}
	for _, o := range ps.outcomes {
		if o.err == nil {
			clean.Served++
		} else {
			clean.Failed++
		}
	}
	fmt.Printf("%-15s %d/%d served  wall %.3fs  %v  identical %v\n",
		"clean", clean.Served, n, clean.WallSeconds, clean.latencyReport, clean.ResultsIdentical)

	// Close r, then compare its charge ledger with the shards' device-side
	// charges.
	shut(r)
	var ledger time.Duration
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
	charged, wasted := st.ChargedSim, st.WastedSim
	rep := &clusterReport{
		header: p.header,
		Shards: p.shards, Replicas: p.replicas, Datasets: len(f.data),
		Converged: converged && quiet, BaselineSimSeconds: base.sim.Seconds(), Clean: clean,
		ChargedSimSeconds: charged.Seconds(), WastedSimSeconds: wasted.Seconds(), DeviceLedgerSeconds: ledger.Seconds(),
		ChargeConserved: charged+wasted == ledger,
	}
	fmt.Printf("\ncharge ledger: attributed %.3fs + wasted %.3fs vs device %.3fs — conserved: %v\n\n",
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
		o.CacheResults, o.CacheCapacity = true, mode.capacity
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
