package main

import (
	"errors"
	"fmt"
	"math"
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

// fullScaleQueries is the workload size from which a serving report's
// orderings (adaptive below best static) are asserted. Below it — the CI
// smoke sizes — a handful of queries decide them and only the structural
// invariants hold reliably; every committed artifact was recorded at or
// above it. The orderings compare
// simulated quantities, which the device charges exactly, so a report passes
// or fails the same on every host.
const fullScaleQueries = 300

// header is the envelope every serving report opens with.
type header struct {
	Experiment    string  `json:"experiment"`
	Devices       int     `json:"devices"`
	Channels      int     `json:"channels"`
	Workers       int     `json:"workers"`
	Queries       int     `json:"queries"`
	RealtimeScale float64 `json:"realtime_scale"`
}

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

// clusterPhaseReport is one replay's ledger: counts cover the replay,
// latency percentiles every query.
type clusterPhaseReport struct {
	WallSeconds float64 `json:"wall_seconds"`
	Served      int     `json:"served"`
	Failed      int     `json:"failed"`
	// ResultsIdentical reports whether every served query fingerprint-matched
	// the single-Explorer oracle.
	ResultsIdentical bool `json:"results_identical"`
	latencyReport
}

// clusterReport is the cluster row's report (BENCH_cluster.json). The
// topology fields of the header describe each shard's storage.
type clusterReport struct {
	header
	Shards              int                `json:"shards"`
	Replicas            int                `json:"replicas"`
	Datasets            int                `json:"datasets"`
	Converged           bool               `json:"converged"`
	BaselineSimSeconds  float64            `json:"baseline_sim_seconds"`
	Clean               clusterPhaseReport `json:"clean"`
	ChargedSimSeconds   float64            `json:"charged_sim_seconds"`
	WastedSimSeconds    float64            `json:"wasted_sim_seconds"`
	DeviceLedgerSeconds float64            `json:"device_ledger_seconds"`
	ChargeConserved     bool               `json:"charge_conserved"`
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
	CacheHits     int64 `json:"cache_hits"`
	GhostHits     int64 `json:"ghost_hits"`
	FinalCapacity int64 `json:"final_capacity"`
	CapGrows      int64 `json:"capacity_grows"`
	CapShrinks    int64 `json:"capacity_shrinks"`
	Batches       int64 `json:"batches"`
}

type scenarioReport struct {
	Scenario         string               `json:"scenario"`
	Description      string               `json:"description"`
	Queries          int                  `json:"queries"`
	Modes            []scenarioModeReport `json:"modes"`
	ResultsIdentical bool                 `json:"results_identical"`
}

// adaptive returns the scenario's self-tuning mode — the last of the sweep —
// or nil for a static-only sweep.
func (s *scenarioReport) adaptive() *scenarioModeReport {
	if n := len(s.Modes); n > 0 && s.Modes[n-1].Adaptive {
		return &s.Modes[n-1]
	}
	return nil
}

// scenariosReport is the scenarios row's report (BENCH_scenarios.json).
type scenariosReport struct {
	header
	GapMS     float64          `json:"gap_ms"`
	Scenarios []scenarioReport `json:"scenarios"`
}

// paperReport is the figure rows' report (BENCH_paper.json): the paper's
// evaluation — Figures 4a–d, 5a–b and 5c as internal/bench computes them —
// in simulated nanoseconds. A figure is a function of the sizes and seeds in
// this envelope and nothing else, so CI holds a fresh full-scale run to the
// committed file byte for byte: a change that moves a figure has to say so.
type paperReport struct {
	header
	Datasets        int                   `json:"datasets"`
	Objects         int                   `json:"objects"`
	QueryVolumeFrac float64               `json:"qvol"`
	Seed            int64                 `json:"seed"`
	DataSeed        int64                 `json:"data_seed"`
	Layout          string                `json:"layout"`
	SeekUS          int                   `json:"seek_us"`
	TransferUS      int                   `json:"transfer_us"`
	GridCells       int                   `json:"grid_cells"`
	Figure4         []bench.Figure4Result `json:"figure4,omitempty"`
	Figure5         []bench.Figure5Result `json:"figure5,omitempty"`
	Figure5c        *bench.Figure5cResult `json:"figure5c,omitempty"`
}

// The checks. Each holds its row to the invariant the row exists to show;
// orderings wait for fullScaleQueries.

func (r *clusterReport) check() error {
	var v violations
	v.require(r.Clean.Served == r.Queries && r.Clean.Failed == 0, "the healthy cluster served %d of %d queries", r.Clean.Served, r.Queries)
	v.require(r.Clean.ResultsIdentical, "a healthy cluster query diverged from the single-Explorer oracle")
	v.require(r.ChargeConserved, "charge conservation broken: the router double- or under-counted device work")
	v.require(r.WastedSimSeconds == 0, "a fault-free replay wasted %vs of device work", r.WastedSimSeconds)
	return v.err()
}

func (r *scenariosReport) check() error {
	var v violations
	v.require(len(r.Scenarios) > 0, "the sweep ran no scenario")
	for _, s := range r.Scenarios {
		v.require(s.ResultsIdentical, "%s: modes returned different results — the oracle contract is broken", s.Scenario)
		ad := s.adaptive()
		if ad == nil { // static-only sweep
			continue
		}
		v.require(len(s.Modes) == len(scenarioModes), "%s: a mode is missing from the sweep", s.Scenario)
		// The cache tuner floats inside the range core gives it around the
		// start: [start/16, 64 x start], the floor at least 1,024 objects.
		lo, hi := max(ad.CacheCapacity/16, 1024), 64*ad.CacheCapacity
		v.require(lo <= ad.FinalCapacity && ad.FinalCapacity <= hi,
			"%s: the cache tuner ended at %d objects, outside its range [%d, %d]", s.Scenario, ad.FinalCapacity, lo, hi)
		// The two orderings the adaptive stack is held to, in the simulated
		// time the replay charged: it wins the scenario built for it, and
		// costs at most 10% on the static hotspot.
		best := math.Inf(1)
		for _, m := range s.Modes[:len(s.Modes)-1] {
			best = min(best, m.SimSeconds)
		}
		full := s.Queries >= fullScaleQueries
		v.require(!full || s.Scenario != "drift" || ad.SimSeconds < best,
			"drift: adaptive charged %vs simulated, not below the best static setting's %vs", ad.SimSeconds, best)
		v.require(!full || s.Scenario != "zipf" || ad.SimSeconds <= 1.10*best,
			"zipf: adaptive charged %vs simulated, past 1.10x the best static setting's %vs", ad.SimSeconds, best)
	}
	return v.err()
}

// odysseyWins names the Figure 4 panels on which the full-scale recording
// shows Odyssey's total below every static engine's at every k. Not fig4b:
// Grid-1fE is 1% ahead at k=5 (18.57 s against 18.77 s). Not fig4d, the
// uniform workload the paper calls adaptivity's worst case: Grid-1fE leads up
// to k=7, FLAT-Ain1 and RTree-Ain1 from k=5.
var odysseyWins = []string{"fig4a", "fig4c"}

// check holds each figure to its shape: what is structural at every scale,
// and the orderings the recording shows — no more — from the scale it was
// recorded at, the tool's defaults. Which engine wins depends on the scale
// (at 20,000 objects FLAT-Ain1 takes fig4c's k=7), so below it they are not
// the reproduction's claim.
func (r *paperReport) check() error {
	var v violations
	recorded := r.Datasets >= 10 && r.Objects >= 100000 && r.Queries >= 1000
	v.require(len(r.Figure4)+len(r.Figure5) > 0 || r.Figure5c != nil, "the report holds no figure")
	for _, f := range r.Figure4 {
		id := f.Spec.ID
		odyssey := map[int]bench.Figure4Row{}
		for _, row := range f.Rows {
			if row.Engine == bench.KindOdyssey {
				odyssey[row.K] = row
			}
		}
		v.require(len(odyssey) == len(f.Ks) && len(f.Rows) == len(f.Ks)*len(bench.Figure4Engines), "%s: %d rows, %d of Odyssey, for ks %v", id, len(f.Rows), len(odyssey), f.Ks)
		for _, row := range f.Rows {
			ody, static := odyssey[row.K], row.Engine != bench.KindOdyssey
			v.require(row.Total == row.Index+row.Query && row.Query > 0, "%s k=%d %s: total %v is not index %v + query %v", id, row.K, row.Engine, row.Total, row.Index, row.Query)
			// Data-to-query time: the adaptive engine indexes nothing up
			// front, and has answered before any static index is built.
			v.require(static == (row.Index > 0), "%s k=%d %s: index time %v", id, row.K, row.Engine, row.Index)
			if !static || !recorded {
				continue
			}
			v.require(row.OdysseyAnsweredByIndexEnd >= 1, "%s k=%d: Odyssey had answered nothing when %s finished indexing", id, row.K, row.Engine)
			v.require(!slices.Contains(odysseyWins, id) || ody.Total < row.Total, "%s k=%d: Odyssey's total %v is not below %s's %v", id, row.K, ody.Total, row.Engine, row.Total)
		}
	}
	for _, f := range r.Figure5 {
		id, ody := f.Spec.ID, f.Series[bench.KindOdyssey]
		for _, e := range f.Engines {
			v.require(len(f.Series[e]) == r.Queries, "%s: %d times for %s over %d queries", id, len(f.Series[e]), e, r.Queries)
		}
		if len(ody) != r.Queries || !recorded {
			continue
		}
		// Convergence: the first query pays the level-0 builds, and the last
		// tenth of the sequence runs cheaper than the first.
		tenth := len(ody) / 10
		v.require(ody[0] == slices.Max(ody), "%s: Odyssey's first query (%v) is not its most expensive", id, ody[0])
		v.require(bench.Mean(ody[len(ody)-tenth:]) < bench.Mean(ody[:tenth]), "%s: Odyssey's last tenth is not cheaper than its first", id)
		// On the clustered workload the converged layout wins the median;
		// on the uniform one (fig5b) FLAT-Ain1's is lower — not asserted.
		for _, e := range f.Engines {
			if id == "fig5a" && e != bench.KindOdyssey {
				v.require(bench.Percentile(ody, 50) < bench.Percentile(f.Series[e], 50), "%s: Odyssey's median is not below %s's", id, e)
			}
		}
	}
	if c := r.Figure5c; c != nil {
		v.require(c.PopularCount > 0 && len(c.WithMerge) == c.PopularCount && len(c.WithoutMerge) == c.PopularCount, "fig5c: %d and %d times for %d queries of the popular combination", len(c.WithMerge), len(c.WithoutMerge), c.PopularCount)
		v.require(!recorded || c.MergeFiles > 0 && c.GainPercent > 0, "fig5c: merging gained %.1f%% over %d merge files", c.GainPercent, c.MergeFiles)
	}
	return v.err()
}

// complete is what validate further asks of the artifacts a fresh run may
// legitimately be narrower than (one figure, -scenario NAME, no -adaptive):
// check skips what a report does not contain, so an
// ordering the committed recording left out would be evaluated nowhere.
func (r *paperReport) complete() error {
	var got []string
	for _, f := range r.Figure4 {
		got = append(got, f.Spec.ID)
	}
	for _, f := range r.Figure5 {
		got = append(got, f.Spec.ID)
	}
	if r.Figure5c != nil {
		got = append(got, r.Figure5c.Spec.ID)
	}
	if !slices.Equal(got, figureIDs) {
		return fmt.Errorf("records figures %v, not all of %v", got, figureIDs)
	}
	return nil
}

func (r *scenariosReport) complete() error {
	var v violations
	var got []string
	moved := false
	for _, s := range r.Scenarios {
		got = append(got, s.Scenario)
		ad := s.adaptive()
		v.require(ad != nil, "%s: recorded without the adaptive mode", s.Scenario)
		moved = moved || ad != nil && ad.FinalCapacity != ad.CacheCapacity
	}
	v.require(slices.Equal(got, workload.ScenarioNames()), "records scenarios %v, not all of %v", got, workload.ScenarioNames())
	// The recording shows the tuner leaving its start on five of six
	// scenarios; one on which it never does is the large static setting
	// under another name.
	v.require(moved, "the cache tuner ended at its starting capacity on every scenario")
	return v.err()
}
