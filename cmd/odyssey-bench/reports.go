package main

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"

	"spaceodyssey/internal/bench"
	"spaceodyssey/internal/workload"
)

// A report is one experiment's machine-readable result (the -json artifact)
// together with the invariants that make it evidence: check is run on every
// fresh report before the tool exits, and by "-experiment validate" on the
// committed BENCH_*.json files. Body field names are pinned by those files.
type report interface {
	check() error
}

// violations collects the invariants a report breaks, so one run of a check
// names all of them.
type violations []string

func (v *violations) require(ok bool, format string, args ...any) {
	if !ok {
		*v = append(*v, fmt.Sprintf(format, args...))
	}
}

func (v violations) err() error {
	if len(v) == 0 {
		return nil
	}
	return errors.New(strings.Join(v, "; "))
}

// fullScaleQueries is the workload size from which a report's wall-clock
// orderings (throttled p99 below unthrottled, adaptive below best static)
// are asserted. Below it — the CI smoke sizes — a handful of queries decide
// a p99 and only the structural invariants hold reliably; every committed
// artifact was recorded at or above it.
const fullScaleQueries = 300

// header is the envelope every serving report opens with.
type header struct {
	Experiment    string  `json:"experiment"`
	Devices       int     `json:"devices"`
	Channels      int     `json:"channels"`
	Placement     string  `json:"placement"`
	Workers       int     `json:"workers"`
	Queries       int     `json:"queries"`
	RealtimeScale float64 `json:"realtime_scale"`
}

func (h header) fullScale() bool { return h.Queries >= fullScaleQueries }

type timing struct {
	WallSeconds float64 `json:"wall_seconds"`
	SimSeconds  float64 `json:"sim_seconds"`
}

// latencyReport is a per-query wall-clock latency profile.
type latencyReport struct {
	P50 float64 `json:"latency_p50_seconds"`
	P95 float64 `json:"latency_p95_seconds"`
	P99 float64 `json:"latency_p99_seconds"`
}

func latencyOf(ds []time.Duration) latencyReport {
	return latencyReport{
		P50: bench.Percentile(ds, 50).Seconds(),
		P95: bench.Percentile(ds, 95).Seconds(),
		P99: bench.Percentile(ds, 99).Seconds(),
	}
}

func (l latencyReport) String() string {
	return fmt.Sprintf("p50 %8.2fms  p95 %8.2fms  p99 %8.2fms", 1e3*l.P50, 1e3*l.P95, 1e3*l.P99)
}

type servingRun struct {
	timing
	Speedup float64 `json:"speedup_vs_serial,omitempty"`
}

type channelUtil struct {
	Device      int     `json:"device"`
	Channel     int     `json:"channel"`
	BusySeconds float64 `json:"busy_seconds"`
	Utilization float64 `json:"utilization"`
	Seeks       int64   `json:"seeks"`
	SeqPages    int64   `json:"seq_pages"`
}

// admissionReport, like maintenanceReport and shardHealthReport below,
// mirrors the library's stats struct with snake_case keys so the whole JSON
// document keeps one naming convention.
type admissionReport struct {
	Admitted  int64 `json:"admitted"`
	Rejected  int64 `json:"rejected"`
	Canceled  int64 `json:"canceled"`
	Swept     int64 `json:"swept"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
}

// servingReport is the parallel row's report.
type servingReport struct {
	header
	Converged   bool            `json:"converged"`
	Serial      servingRun      `json:"serial"`
	Pool        servingRun      `json:"pool"`
	Admission   admissionReport `json:"admission"`
	ChannelUtil []channelUtil   `json:"channel_utilization"`
}

type asyncModeReport struct {
	timing
	latencyReport
	Converged              bool    `json:"converged"`
	ConvergenceWallSeconds float64 `json:"convergence_wall_seconds"`
	ConvergencePasses      int     `json:"convergence_passes"`
	Refinements            int     `json:"refinements"`
	PartitionsMerged       int     `json:"partitions_merged"`
	MergeFiles             int     `json:"merge_files"`
	// MaintenanceBudget is the background I/O budget this mode ran under (0
	// = unthrottled); ThrottledOps counts maintenance device operations the
	// budget gated, and QueuedDelaySeconds is the total arrival-gated
	// queueing delay the contention model attributed to queries.
	MaintenanceBudget  float64            `json:"maintenance_budget"`
	ThrottledOps       int64              `json:"throttled_ops"`
	QueuedDelaySeconds float64            `json:"queued_delay_seconds"`
	Maintenance        *maintenanceReport `json:"maintenance,omitempty"`
}

type maintenanceReport struct {
	Queued              int64 `json:"queued"`
	Coalesced           int64 `json:"coalesced"`
	Completed           int64 `json:"completed"`
	Failed              int64 `json:"failed"`
	Dropped             int64 `json:"dropped"`
	RefineTasks         int64 `json:"refine_tasks"`
	MergeTasks          int64 `json:"merge_tasks"`
	Refinements         int64 `json:"refinements"`
	QueueDepthHighWater int   `json:"queue_depth_high_water"`
}

// asyncReport is the async row's report (BENCH_async.json).
type asyncReport struct {
	header
	MaintenanceWorkers int              `json:"maintenance_workers"`
	Sync               asyncModeReport  `json:"sync"`
	Async              asyncModeReport  `json:"async"`
	P99Speedup         float64          `json:"p99_speedup_sync_over_async"`
	Contention         contentionReport `json:"contention"`
}

// contentionReport is the async row's second leg (see runContention):
// foreground QoS in the regime the background I/O budget targets, its two
// legs differing only in the budget. Throttling moves maintenance work in
// wall-clock time only — results and simulated charges are identical — so a
// foreground tail improvement is contention relief, not skipped work.
type contentionReport struct {
	MaintenanceBudget           float64             `json:"maintenance_budget"`
	ArrivalGapSeconds           float64             `json:"arrival_gap_seconds"`
	ForegroundDatasets          int                 `json:"foreground_datasets"`
	BackgroundDatasets          int                 `json:"background_datasets"`
	BackgroundQueries           int                 `json:"background_queries"`
	Unthrottled                 contentionLegReport `json:"unthrottled"`
	Throttled                   contentionLegReport `json:"throttled"`
	FgP99UnderContentionSeconds float64             `json:"fg_p99_under_contention_seconds"`
	FgP99ThrottledSeconds       float64             `json:"fg_p99_throttled_seconds"`
	P99Improvement              float64             `json:"p99_improvement_unthrottled_over_throttled"`
}

type contentionLegReport struct {
	MaintenanceBudget float64 `json:"maintenance_budget"`
	latencyReport
	ThrottledOps       int64   `json:"throttled_ops"`
	QueuedDelaySeconds float64 `json:"queued_delay_seconds"`
}

type sharingModeReport struct {
	Share     bool `json:"share"`
	Converged bool `json:"converged"`
	timing
	PagesRead      int64 `json:"pages_read"`
	CacheHits      int64 `json:"cache_hits"`
	AttachedScans  int64 `json:"attached_scans"`
	SharedBuilds   int64 `json:"shared_builds"`
	Batches        int64 `json:"batches"`
	BatchedQueries int64 `json:"batched_queries"`
}

// sharingReport is the sharing row's report (BENCH_sharing.json).
type sharingReport struct {
	header
	Async               bool              `json:"async"`
	BatchWindowMS       float64           `json:"batch_window_ms"`
	Off                 sharingModeReport `json:"off"`
	On                  sharingModeReport `json:"on"`
	PagesReadReduction  float64           `json:"pages_read_reduction"`
	SimSpeedupOffOverOn float64           `json:"sim_speedup_off_over_on"`
	ResultsIdentical    bool              `json:"results_identical"`
}

// cacheModeReport's counters are deltas over the measured replay (the
// convergence passes populate the cache but are not reported); Entries and
// CachedObjects are the end-of-run snapshot.
type cacheModeReport struct {
	Cache     bool `json:"cache"`
	Converged bool `json:"converged"`
	timing
	PagesRead        int64   `json:"pages_read"`
	Hits             int64   `json:"hits"`
	ContainmentHits  int64   `json:"containment_hits"`
	Misses           int64   `json:"misses"`
	Inserts          int64   `json:"inserts"`
	Evictions        int64   `json:"evictions"`
	Invalidations    int64   `json:"invalidations"`
	ZeroReadQueries  int64   `json:"zero_read_queries"`
	ZeroReadFraction float64 `json:"zero_read_fraction"`
	Entries          int     `json:"entries"`
	CachedObjects    int64   `json:"cached_objects"`
}

// cacheReport is the cache row's report (BENCH_cache.json).
type cacheReport struct {
	header
	Share               bool            `json:"share"`
	Async               bool            `json:"async"`
	Off                 cacheModeReport `json:"off"`
	On                  cacheModeReport `json:"on"`
	PagesReadReduction  float64         `json:"pages_read_reduction"`
	SimSpeedupOffOverOn float64         `json:"sim_speedup_off_over_on"`
	ResultsIdentical    bool            `json:"results_identical"`
}

// faultsModeReport's device counters are deltas over the replay; its
// latency percentiles cover served queries only.
type faultsModeReport struct {
	timing
	Served         int     `json:"served"`
	Failed         int     `json:"failed"`
	ServedFraction float64 `json:"served_fraction"`
	latencyReport
	PagesRead       int64 `json:"pages_read"`
	TransientFaults int64 `json:"transient_faults"`
	PermanentFaults int64 `json:"permanent_faults"`
	LatencySpikes   int64 `json:"latency_spikes"`
	RetriedOps      int64 `json:"retried_ops"`
	RetryExhausted  int64 `json:"retry_exhausted"`
	ZeroReadQueries int64 `json:"zero_read_queries"`
}

// faultsReport is the faults row's report (BENCH_faults.json).
type faultsReport struct {
	header
	Share                  bool             `json:"share"`
	Cache                  bool             `json:"cache"`
	Async                  bool             `json:"async"`
	Converged              bool             `json:"converged"`
	FaultRate              float64          `json:"fault_rate"`
	RetryMaxAttempts       int              `json:"retry_max_attempts"`
	Clean                  faultsModeReport `json:"clean"`
	Storm                  faultsModeReport `json:"storm"`
	ServedResultsIdentical bool             `json:"served_results_identical"`
	BrownoutEngagements    int64            `json:"brownout_engagements"`
	BrownoutSheds          int64            `json:"brownout_sheds"`
	DegradedAtEnd          bool             `json:"degraded_at_end"`
}

// clusterPhaseReport is one replay's availability ledger: counters are
// deltas over the replay, latency percentiles cover every query.
type clusterPhaseReport struct {
	WallSeconds float64 `json:"wall_seconds"`
	Served      int     `json:"served"`
	Partial     int     `json:"partial"`
	Failed      int     `json:"failed"`
	// Availability counts every answered query (full or partial) against
	// the workload; FullFraction counts only complete answers.
	Availability float64 `json:"availability"`
	FullFraction float64 `json:"full_fraction"`
	// ResultsIdentical reports whether every fully-served query
	// fingerprint-matched the single-Explorer oracle.
	ResultsIdentical bool `json:"results_identical"`
	latencyReport
	Failovers    int64 `json:"failovers"`
	Retries      int64 `json:"retries"`
	HedgesFired  int64 `json:"hedges_fired"`
	HedgeWins    int64 `json:"hedge_wins"`
	ShardRejects int64 `json:"shard_rejects"`
}

type shardHealthReport struct {
	Shard         int    `json:"shard"`
	State         string `json:"state"`
	Probes        int64  `json:"probes"`
	ProbeFailures int64  `json:"probe_failures"`
	Transitions   int64  `json:"transitions"`
	Serves        int64  `json:"serves"`
	Rejects       int64  `json:"rejects"`
}

// clusterReport is the cluster row's report (BENCH_cluster.json). The
// topology fields of the header describe each shard's storage.
type clusterReport struct {
	header
	Shards              int                 `json:"shards"`
	Replicas            int                 `json:"replicas"`
	Datasets            int                 `json:"datasets"`
	ShardFaults         bool                `json:"shard_faults"`
	Converged           bool                `json:"converged"`
	BaselineSimSeconds  float64             `json:"baseline_sim_seconds"`
	Clean               clusterPhaseReport  `json:"clean"`
	Crash               *clusterPhaseReport `json:"crash,omitempty"`
	SlowUnhedged        *clusterPhaseReport `json:"slow_unhedged,omitempty"`
	SlowHedged          *clusterPhaseReport `json:"slow_hedged,omitempty"`
	HedgeP99Speedup     float64             `json:"hedge_p99_speedup"`
	ChargedSimSeconds   float64             `json:"charged_sim_seconds"`
	WastedSimSeconds    float64             `json:"wasted_sim_seconds"`
	DeviceLedgerSeconds float64             `json:"device_ledger_seconds"`
	ChargeConserved     bool                `json:"charge_conserved"`
	ShardHealth         []shardHealthReport `json:"shard_health"`
}

type scenarioModeReport struct {
	Mode          string  `json:"mode"`
	BatchWindowMS float64 `json:"batch_window_ms"`
	Adaptive      bool    `json:"adaptive"`
	CacheCapacity int64   `json:"cache_capacity"`
	Converged     bool    `json:"converged"`
	timing
	PagesRead   int64 `json:"pages_read"`
	Refinements int   `json:"refinements"`
	Merges      int   `json:"merges"`
	latencyReport
	CacheHits     int64   `json:"cache_hits"`
	GhostHits     int64   `json:"ghost_hits"`
	FinalCapacity int64   `json:"final_capacity"`
	CapGrows      int64   `json:"capacity_grows"`
	CapShrinks    int64   `json:"capacity_shrinks"`
	FinalWindowMS float64 `json:"final_window_ms"`
	WindowGrows   int64   `json:"window_grows"`
	WindowShrinks int64   `json:"window_shrinks"`
	Batches       int64   `json:"batches"`
}

type scenarioReport struct {
	Scenario               string               `json:"scenario"`
	Description            string               `json:"description"`
	Queries                int                  `json:"queries"`
	Modes                  []scenarioModeReport `json:"modes"`
	ResultsIdentical       bool                 `json:"results_identical"`
	AdaptiveP99            float64              `json:"adaptive_p99_seconds,omitempty"`
	BestStaticP99          float64              `json:"best_static_p99_seconds"`
	WorstStaticP99         float64              `json:"worst_static_p99_seconds"`
	AdaptiveBeatsAllStatic bool                 `json:"adaptive_beats_all_static"`
}

// scenariosReport is the scenarios row's report (BENCH_scenarios.json).
type scenariosReport struct {
	header
	GapMS     float64          `json:"gap_ms"`
	Scenarios []scenarioReport `json:"scenarios"`
}

// The checks. Each holds its row to the invariant the row exists to show;
// orderings between wall-clock percentiles wait for fullScaleQueries.

func (r *servingReport) check() error {
	var v violations
	a := r.Admission
	v.require(r.Serial.SimSeconds > 0 && r.Pool.SimSeconds > 0, "a replay charged no simulated time")
	v.require(a.Admitted+a.Rejected == int64(r.Queries), "%d admitted + %d rejected != %d queries", a.Admitted, a.Rejected, r.Queries)
	v.require(a.Admitted == a.Completed+a.Canceled+a.Failed && a.Failed == 0, "admission ledger does not balance: %+v", a)
	v.require(len(r.ChannelUtil) == r.Devices*r.Channels, "%d channel rows for a %dx%d topology", len(r.ChannelUtil), r.Devices, r.Channels)
	return v.err()
}

func (r *asyncReport) check() error {
	var v violations
	for name, m := range map[string]asyncModeReport{"sync": r.Sync, "async": r.Async} {
		v.require(m.Converged && m.ConvergencePasses >= 1, "%s mode did not converge (%d passes)", name, m.ConvergencePasses)
	}
	if mt := r.Async.Maintenance; mt == nil {
		v.require(false, "async mode reports no maintenance pipeline")
	} else {
		v.require(mt.Queued > 0 && mt.QueueDepthHighWater >= 1, "async mode scheduled no background maintenance")
		v.require(mt.Failed == 0 && mt.Completed == mt.Queued-mt.Dropped, "maintenance ledger does not balance: %+v", *mt)
	}
	c := r.Contention
	v.require(c.MaintenanceBudget > 0 && c.ArrivalGapSeconds > 0, "contention leg ran without a budget or pacing")
	v.require(c.ForegroundDatasets >= 1 && c.BackgroundQueries > 0, "contention leg had no foreground datasets or no churn")
	v.require(c.Unthrottled.ThrottledOps == 0, "the unthrottled leg gated %d maintenance ops", c.Unthrottled.ThrottledOps)
	v.require(c.FgP99UnderContentionSeconds > 0 && c.FgP99ThrottledSeconds > 0, "contention leg measured no foreground latency")
	v.require(!r.fullScale() || c.FgP99ThrottledSeconds < c.FgP99UnderContentionSeconds,
		"the I/O budget did not relieve the foreground tail: throttled p99 %vs >= unthrottled %vs", c.FgP99ThrottledSeconds, c.FgP99UnderContentionSeconds)
	return v.err()
}

func (r *sharingReport) check() error {
	var v violations
	off, on := r.Off, r.On
	v.require(r.ResultsIdentical, "sharing changed query results — the oracle contract is broken")
	v.require(off.AttachedScans == 0, "share-off attached %d scans", off.AttachedScans)
	v.require(on.AttachedScans > 0, "the sharing run attached zero scans on the overlapping workload")
	v.require(r.BatchWindowMS == 0 || on.BatchedQueries == int64(r.Queries), "%d of %d queries went through the batch stage", on.BatchedQueries, r.Queries)
	v.require(on.PagesRead < off.PagesRead && r.PagesReadReduction > 0, "sharing saved no device reads: %d -> %d pages", off.PagesRead, on.PagesRead)
	return v.err()
}

func (r *cacheReport) check() error {
	var v violations
	off, on := r.Off, r.On
	v.require(r.ResultsIdentical, "caching changed query results — the oracle contract is broken")
	v.require(off.Hits == 0 && off.ZeroReadQueries == 0, "cache-off served %d hits", off.Hits)
	v.require(on.Hits > 0, "the cache run hit nothing on the zipf hot-region workload")
	v.require(on.ContainmentHits > 0, "the cache run answered nothing by containment on the zipf hot-region workload")
	v.require(on.ZeroReadFraction >= 0.3, "only %.0f%% of queries were served with zero device reads", 100*on.ZeroReadFraction)
	v.require(on.PagesRead < off.PagesRead, "caching saved no device reads: %d -> %d pages", off.PagesRead, on.PagesRead)
	return v.err()
}

func (r *faultsReport) check() error {
	var v violations
	clean, storm := r.Clean, r.Storm
	v.require(r.ServedResultsIdentical, "a query served mid-storm returned a different result than fault-free — partial results leaked")
	v.require(r.RetryMaxAttempts > 1, "the experiment ran without read retries")
	v.require(clean.Failed == 0 && clean.ServedFraction == 1, "the healthy device failed %d queries", clean.Failed)
	v.require(clean.TransientFaults == 0 && clean.RetriedOps == 0, "the fault-free replay saw %d faults", clean.TransientFaults)
	v.require(storm.TransientFaults > 0, "the storm replay injected no faults — the plan is not wired")
	v.require(storm.RetriedOps > 0, "faults were injected but nothing retried — the retry policy is not wired")
	v.require(storm.ServedFraction >= 0.95, "only %.1f%% of queries were served mid-storm", 100*storm.ServedFraction)
	return v.err()
}

func (r *clusterReport) check() error {
	var v violations
	v.require(r.Clean.Served == r.Queries && r.Clean.Failed == 0, "the healthy cluster fully served %d of %d queries", r.Clean.Served, r.Queries)
	v.require(r.Clean.ResultsIdentical, "a healthy cluster query diverged from the single-Explorer oracle")
	v.require(r.ChargeConserved, "charge conservation broken: hedged reads double- or under-counted device work")
	v.require(len(r.ShardHealth) == r.Shards, "%d shard health rows for %d shards", len(r.ShardHealth), r.Shards)
	if !r.ShardFaults {
		return v.err()
	}
	crash, un, he := r.Crash, r.SlowUnhedged, r.SlowHedged
	if crash == nil || un == nil || he == nil {
		return errors.New("a shard-fault phase is missing from the report")
	}
	v.require(crash.ShardRejects > 0, "the crash window injected no shard faults — the plan is not wired")
	v.require(crash.Failovers > 0, "shards were down but nothing failed over — the retry loop is not wired")
	v.require(crash.Availability >= 0.99, "availability through the crash window was %.2f%%", 100*crash.Availability)
	v.require(crash.ResultsIdentical && un.ResultsIdentical && he.ResultsIdentical, "a query fully served under shard faults diverged from the oracle")
	v.require(he.HedgesFired > 0, "the slow-shard storm fired no hedges — the p99 trigger is not wired")
	// Asserted at every scale: the injected 25 ms shard delay dwarfs the
	// timer noise that makes the other rows' p99 orderings smoke-unsafe.
	v.require(he.P99 < un.P99, "hedged reads did not beat the unhedged tail under the slow-shard storm: %vs >= %vs", he.P99, un.P99)
	return v.err()
}

func (r *scenariosReport) check() error {
	var v violations
	v.require(len(r.Scenarios) > 0, "the sweep ran no scenario")
	for _, s := range r.Scenarios {
		v.require(s.ResultsIdentical, "%s: modes returned different results — the oracle contract is broken", s.Scenario)
		if s.AdaptiveP99 == 0 { // static-only sweep
			continue
		}
		ad := s.Modes[len(s.Modes)-1]
		v.require(ad.Adaptive && len(s.Modes) == len(scenarioModes), "%s: a mode is missing from the sweep", s.Scenario)
		// The adaptive machinery must engage even at smoke scale: the batch
		// tuner moved, and the cache tuner resized or saw ghost traffic.
		v.require(ad.Batches > 0 && ad.WindowGrows+ad.WindowShrinks > 0, "%s: the batch tuner never took a step across the replay", s.Scenario)
		v.require(ad.FinalCapacity != ad.CacheCapacity || ad.CapGrows+ad.CapShrinks+ad.GhostHits > 0, "%s: the cache tuner never engaged (convergence or replay)", s.Scenario)
		// The two orderings the adaptive stack is held to: it wins the
		// scenario built for it, and costs at most 10% on the static hotspot.
		full := s.Queries >= fullScaleQueries
		v.require(!full || s.Scenario != "drift" || s.AdaptiveBeatsAllStatic && s.AdaptiveP99 < s.BestStaticP99,
			"drift: adaptive p99 %vs did not beat the best static setting %vs", s.AdaptiveP99, s.BestStaticP99)
		v.require(!full || s.Scenario != "zipf" || s.AdaptiveP99 <= 1.10*s.BestStaticP99,
			"zipf: adaptive p99 %vs regressed past 1.10x the best static setting %vs", s.AdaptiveP99, s.BestStaticP99)
	}
	return v.err()
}

// complete is what validate further asks of the two artifacts a fresh run
// may legitimately be narrower than (-scenario NAME, no -adaptive, no
// -shardfaults): check skips what a report does not contain, so an ordering
// the committed recording left out would be evaluated nowhere.
func (r *scenariosReport) complete() error {
	var v violations
	var got []string
	for _, s := range r.Scenarios {
		got = append(got, s.Scenario)
		v.require(s.AdaptiveP99 > 0, "%s: recorded without the adaptive mode", s.Scenario)
	}
	v.require(slices.Equal(got, workload.ScenarioNames()), "records scenarios %v, not all of %v", got, workload.ScenarioNames())
	return v.err()
}

func (r *clusterReport) complete() error {
	if !r.ShardFaults {
		return errors.New("recorded without the shard-fault phases (crash window, slow-shard storm)")
	}
	return nil
}
