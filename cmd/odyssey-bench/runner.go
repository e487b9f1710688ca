package main

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"sync"
	"time"

	odyssey "spaceodyssey"
	"spaceodyssey/internal/bench"
	"spaceodyssey/internal/datagen"
	"spaceodyssey/internal/workload"
)

// The runner: the steps every serving experiment is made of — build a
// fixture, converge an engine on it, replay a workload, compare result
// fingerprints, write the report — each written once; the rows in
// experiments.go only sequence them. Like the rest of the tool it stops on
// the first error: a half-run experiment has no report worth keeping.

func must(err error) {
	if err != nil {
		fatalf("%v", err)
	}
}

func ok[T any](v T, err error) T {
	must(err)
	return v
}

func shut(c interface{ Close() error }) { must(c.Close()) }

// fixture is the data and base engine options all of one experiment's
// engines are built from.
type fixture struct {
	data [][]odyssey.Object
	base odyssey.Options
}

func newFixture(cfg bench.Config) *fixture {
	return &fixture{
		data: datagen.GenerateDatasets(datagen.Config{
			Seed: cfg.DataSeed, NumObjects: cfg.ObjectsPerDataset,
			Bounds: cfg.Bounds, Layout: cfg.DataLayout,
		}, cfg.Datasets),
		base: odyssey.Options{
			Bounds: cfg.Bounds, Cost: cfg.Cost, CachePages: cfg.CachePages,
			// Miss-heavy serving, like the paper: the buffer cache never
			// helps, every query pays platter time.
			DropCachesPerQuery: true,
			Devices:            cfg.Devices, Channels: cfg.Channels,
		},
	}
}

func (f *fixture) options(preset func(*odyssey.Options)) odyssey.Options {
	opts := f.base
	if preset != nil {
		preset(&opts)
	}
	return opts
}

// load registers the fixture's datasets with an Explorer or a cluster Router.
func (f *fixture) load(dst interface {
	AddDataset(odyssey.DatasetID, []odyssey.Object) error
}) {
	for i, objs := range f.data {
		must(dst.AddDataset(odyssey.DatasetID(i), objs))
	}
}

// explorer builds a cold engine over the fixture's datasets.
func (f *fixture) explorer(preset func(*odyssey.Options)) *odyssey.Explorer {
	ex := ok(odyssey.NewExplorer(f.options(preset)))
	f.load(ex)
	return ex
}

// steadyPasses caps the convergence replays before a steady-state
// measurement: repeat queries cross merge thresholds on later passes, and a
// handful is enough at every size the tool is run at.
const steadyPasses = 4

// steady brings a fresh engine to where a steady-state measurement starts:
// layout converged on the instant disk (extra passes are nearly free there),
// clock and device counters restarted, then real-time emulation on.
func (f *fixture) steady(queries []odyssey.Query, preset func(*odyssey.Options), scale float64) (*odyssey.Explorer, bool) {
	ex := f.explorer(preset)
	_, converged := converge(ex, queries, steadyPasses, 0)
	zero(ex)
	ex.SetRealTimeScale(scale)
	return ex, converged
}

// measure is one steady-state replay on an engine of its own.
func (f *fixture) measure(queries []odyssey.Query, preset func(*odyssey.Options), scale float64, o replayOpts) (pass, bool) {
	ex, converged := f.steady(queries, preset, scale)
	defer shut(ex)
	return replay(ex, queries, o), converged
}

// zero restarts the clock and the device counters. Measured phases start
// from zero rather than diffing the clock because on a multi-channel
// topology a delta across the imbalanced convergence phase under-reports:
// the busiest channel's head start shadows measured-phase work on the others.
func zero(ex *odyssey.Explorer) {
	ex.ResetClock()
	ex.ResetStats()
}

// querier is what a replay submits to: an Explorer or a cluster Router.
type querier interface {
	Query(q odyssey.Box, datasets []odyssey.DatasetID) ([]odyssey.Object, error)
}

// untilQuiet repeats pass — one replay of the workload, background
// maintenance drained, so deferred work belongs to the pass that scheduled
// it — until a pass leaves the layout alone (no refinement, merge or merge
// eviction) or maxPasses are spent; passes counts the replays that still
// adapted it. What follows an unconverged layout measures leftover
// reorganization, not steady state: the warning is printed here, once, for
// every experiment.
func untilQuiet(maxPasses int, layout func() odyssey.Metrics, pass func()) (passes int, converged bool) {
	for passes = 0; passes < maxPasses; passes++ {
		before := layout()
		pass()
		after := layout()
		if after.Refinements == before.Refinements &&
			after.PartitionsMerged == before.PartitionsMerged &&
			after.MergeEvictions == before.MergeEvictions {
			return passes, true
		}
	}
	fmt.Printf("WARNING: layout still adapting after %d passes — what follows measures leftover reorganization, not steady state\n", maxPasses)
	return passes, false
}

// converge replays the workload on ex, serially or through a pool of the
// given size, until its layout is quiet.
func converge(ex *odyssey.Explorer, queries []odyssey.Query, maxPasses, workers int) (passes int, converged bool) {
	return untilQuiet(maxPasses, ex.Metrics, func() { replay(ex, queries, replayOpts{workers: workers, discard: true}) })
}

// replayOpts shapes one replay of a workload on an Explorer.
type replayOpts struct {
	// workers is the pool size: 0 replays serially, N > 0 goes through a
	// Dispatcher of N workers.
	workers   int
	admission odyssey.AdmissionConfig
	// gap > 0 paces a pooled replay open-loop: query i is due gaps[i]*gap
	// after query i-1 — with nil gaps one query per gap, the first at once —
	// however the pool is keeping up.
	gap  time.Duration
	gaps []float64
	// coldCache flushes the result cache and restarts clock and device
	// counters first: repeats in the workload have to re-earn their hits.
	coldCache bool
	// discard drops the results unfingerprinted (convergence passes).
	discard bool
}

// outcome is one query's result within a pass.
type outcome struct {
	err   error  // the query's error, if any
	print uint64 // result fingerprint (err == nil)
	// wall is the service time on the worker, e2e the delivery time since
	// the query's scheduled arrival: when a paced replay falls behind,
	// blocked submissions count against it rather than silently throttling
	// the open loop (coordinated omission).
	wall, e2e time.Duration
}

// ledgers snapshots the counters the reports quote. The device counters
// restart with zero(); the cache and layout counters are engine-lifetime, so
// a pass carries a snapshot from either end.
type ledgers struct {
	disk    odyssey.DiskStats
	cache   odyssey.CacheStats
	metrics odyssey.Metrics
}

func snapshot(ex *odyssey.Explorer) ledgers {
	return ledgers{ex.DiskStats(), ex.CacheStats(), ex.Metrics()}
}

// pass is one replay: wall and outcomes from the submit loop (direct or
// dispatch), the rest added by replay.
type pass struct {
	wall          time.Duration // first submission to last result
	outcomes      []outcome     // by query index
	admission     odyssey.AdmissionStats
	sim           time.Duration // simulated clock advance, maintenance included
	before, after ledgers
}

func (p pass) timing() timing { return timing{p.wall.Seconds(), p.sim.Seconds()} }

// prints returns the fingerprints of the served queries by query index.
func (p pass) prints() map[int]uint64 {
	m := make(map[int]uint64, len(p.outcomes))
	for i, o := range p.outcomes {
		if o.err == nil {
			m[i] = o.print
		}
	}
	return m
}

// latency profiles one duration per query.
func (p pass) latency(of func(outcome) time.Duration) latencyReport {
	ds := make([]time.Duration, len(p.outcomes))
	for i, o := range p.outcomes {
		ds[i] = of(o)
	}
	return latencyOf(ds)
}

func serviceTime(o outcome) time.Duration { return o.wall }

// replay runs the workload through the Explorer once. It returns after the
// background maintenance the pass scheduled has drained, so pass.sim covers
// the queries plus all the layout work they caused — the same work a
// synchronous engine pays inline.
func replay(ex *odyssey.Explorer, queries []odyssey.Query, o replayOpts) pass {
	if o.coldCache {
		ex.FlushResultCache()
		zero(ex)
	}
	sim0, before := ex.Clock(), snapshot(ex)
	var p pass
	if o.workers > 0 {
		p = dispatch(ex, queries, o)
	} else {
		p = direct(ex, queries, 1, o.discard)
	}
	must(ex.Quiesce(context.Background()))
	p.sim = ex.Clock() - sim0
	p.before, p.after = before, snapshot(ex)
	for i, oc := range p.outcomes {
		if oc.err != nil {
			fatalf("query %d: %v", i, oc.err)
		}
	}
	return p
}

// dispatch submits the workload to a Dispatcher of o.workers and collects the
// results as they are delivered.
func dispatch(ex *odyssey.Explorer, queries []odyssey.Query, o replayOpts) pass {
	p := pass{outcomes: make([]outcome, len(queries))}
	d := odyssey.NewDispatcherWithAdmission(ex, o.workers, o.admission)
	out := make(chan odyssey.BatchResult, len(queries))
	due := make([]time.Time, len(queries))
	collected := make(chan struct{})
	go func() {
		defer close(collected)
		for r := range out {
			oc := outcome{err: r.Err, wall: r.Wall, e2e: time.Since(due[r.Index])}
			if r.Err == nil && !o.discard {
				oc.print = fingerprint(r.Objects)
			}
			p.outcomes[r.Index] = oc
		}
	}()
	t0 := time.Now()
	next := t0
	for i, q := range queries {
		due[i] = time.Now()
		if o.gap > 0 {
			switch {
			case o.gaps != nil:
				next = next.Add(time.Duration(o.gaps[i] * float64(o.gap)))
			case i > 0:
				next = next.Add(o.gap)
			}
			time.Sleep(time.Until(next))
			due[i] = next
		}
		must(d.Submit(i, q, out))
	}
	d.Close()
	p.wall = time.Since(t0)
	close(out)
	<-collected
	p.admission = d.AdmissionStats()
	return p
}

// direct replays the workload from n goroutines calling Query themselves,
// query i on goroutine i mod n: the serial loop (n = 1), and the way a
// Router, which has no dispatcher, is driven.
func direct(e querier, queries []odyssey.Query, n int, discard bool) pass {
	p := pass{outcomes: make([]outcome, len(queries))}
	results := make([][]odyssey.Object, len(queries))
	t0 := time.Now()
	var wg sync.WaitGroup
	for s := 0; s < n; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := s; i < len(queries); i += n {
				q0 := time.Now()
				objs, err := e.Query(queries[i].Range, queries[i].Datasets)
				wall := time.Since(q0)
				results[i], p.outcomes[i] = objs, outcome{err: err, wall: wall, e2e: wall}
			}
		}()
	}
	wg.Wait()
	p.wall = time.Since(t0)
	// Fingerprinted off the clock: hashing between queries would be billed
	// to the serial baseline's wall time.
	for i, objs := range results {
		if p.outcomes[i].err == nil && !discard {
			p.outcomes[i].print = fingerprint(objs)
		}
	}
	return p
}

// fingerprint hashes a result multiset order-independently: per object an
// FNV-1a hash of its identity and geometry, combined by addition so
// delivery order is irrelevant.
func fingerprint(objs []odyssey.Object) uint64 {
	var sum uint64
	for _, o := range objs {
		h := fnv.New64a()
		fmt.Fprintf(h, "%d/%d/%v/%v", o.Dataset, o.ID, o.Center, o.HalfExtent)
		sum += h.Sum64()
	}
	return sum
}

// samePrints reports whether every query served in got returned what it
// returned in want: a serving mode may change I/O, and a degraded one may
// fail queries, but neither may change an answer.
func samePrints(got, want map[int]uint64) bool {
	for i, fp := range got {
		if w, ok := want[i]; !ok || w != fp {
			return false
		}
	}
	return true
}

// generate draws the workload over the first `datasets` datasets in the
// given shape, up to three datasets per query.
func generate(wcfg bench.WorkloadConfig, datasets int, seed int64, shape workload.Config) []odyssey.Query {
	shape.Seed, shape.NumQueries, shape.NumDatasets = seed, wcfg.Queries, datasets
	shape.DatasetsPerQuery = min(3, datasets)
	shape.QueryVolumeFrac = wcfg.QueryVolumeFrac
	return ok(workload.Generate(shape)).Queries
}

// writeJSON writes a report as an indented JSON artifact. Artifacts are
// written only to an explicit path: nothing in the tree overwrites a
// committed BENCH_*.json as a side effect.
func writeJSON(path string, v any) {
	if path == "" {
		return
	}
	data := ok(json.MarshalIndent(v, "", "  "))
	must(os.WriteFile(path, append(data, '\n'), 0o644))
	fmt.Printf("(wrote %s)\n", path)
}
