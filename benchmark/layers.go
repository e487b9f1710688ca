package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	odyssey "spaceodyssey"
	"spaceodyssey/cluster"
	"spaceodyssey/internal/core"
	"spaceodyssey/internal/geom"
	"spaceodyssey/internal/object"
	"spaceodyssey/internal/octree"
	"spaceodyssey/internal/pagefile"
	"spaceodyssey/internal/rawfile"
	"spaceodyssey/internal/simdisk"
	"spaceodyssey/internal/workload"
)

// The traced run. End-to-end numbers never come from here: this run exists
// to say where a query's time goes. It has five parts, each a third of
// -seconds where it is timed at all:
//
//	U  the public stack, untraced: the throughput tracing is compared with.
//	A  the public stack, every query under its own simdisk.OpScope: the
//	   dispatcher's wait/exec split, per-query simulated cost, and the
//	   layers' own ledgers read before and after.
//	B  the instrumented stack: the same layers assembled by hand around a
//	   storage wrapper that records a span per page I/O call, a core.query
//	   span around every query.
//	C  direct calls into octree, pagefile, object, rawfile and core on a
//	   sample of B's queries, each under its own span.
//	P  two probes on fresh public stacks: device faults with retries, and a
//	   2-shard replicated cluster with a crashed shard.

const (
	spanCapacity = 1 << 21
	sampleEvery  = 50 // part C looks at every 50th query of the stream
	microReps    = 64 // calls per span for the sub-microsecond functions
	faultQueries = 2000
)

// stackB is the instrumented stack: storage, raw files and engine built
// from the layers' own constructors, the way NewExplorer and AddDataset do
// it, with the storage wrapped for tracing.
type stackB struct {
	inner simdisk.Storage
	dev   *tracedStorage
	eng   *core.Odyssey
	raws  []*rawfile.Raw
	drop  bool // drop the buffer cache before every query (paper preset)
}

func (e *env) newStackB(spec workloadSpec, tr *tracer, r *result) (*stackB, error) {
	cfg, missing := spec.preset.engineConfig()
	if len(missing) > 0 {
		r.info["preset_missing_fields_core"] = missing
	}
	inner := simdisk.NewStorage(simdisk.ReducedScaleCostModel(), cachePages, 1, 1, nil)
	b := &stackB{inner: inner, dev: newTracedStorage(inner, tr), drop: spec.preset.dropCachesPerQuery()}
	eng, err := core.New(b.dev, nil, geom.UnitBox(), cfg)
	if err != nil {
		return nil, err
	}
	b.eng = eng
	for i, objs := range e.data {
		raw, err := rawfile.Write(b.dev, fmt.Sprintf("ds%d.raw", i), object.DatasetID(i), objs)
		if err != nil {
			return nil, err
		}
		if err := eng.AddRaw(raw); err != nil {
			return nil, err
		}
		b.raws = append(b.raws, raw)
	}
	// The data pre-exists the exploration, exactly as Explorer.AddDataset
	// models it.
	b.dev.ResetClock()
	b.dev.ResetStats()
	b.dev.DropCaches()
	return b, nil
}

func (b *stackB) answer(q workload.Query) ([]object.Object, error) {
	return b.query(context.Background(), q.Range, q.Datasets)
}
func (b *stackB) quiesce() error    { return b.eng.Quiesce(context.Background()) }
func (b *stackB) flushResultCache() { b.eng.FlushResultCache() }

func (b *stackB) close() {
	b.eng.Close()
	b.dev.Close()
}

// query is Explorer.QueryTimedCtx without the Explorer: drop the cache if
// the preset says so, attach the query's charge scope, call the engine.
func (b *stackB) query(ctx context.Context, q geom.Box, datasets []object.DatasetID) ([]object.Object, error) {
	if b.drop {
		b.dev.DropCaches()
	}
	ctx, _ = simdisk.WithOpScope(ctx, simdisk.PriForeground)
	return b.eng.QueryCtx(ctx, q, datasets)
}

// pass sends the stream once through the instrumented stack, closed loop,
// one core.query span per query.
func (b *stackB) pass(tr *tracer, s *stream, ls lanes) time.Duration {
	clients := len(ls)
	t0 := time.Now()
	runClients(clients, func(c int) {
		l := ls[c]
		for pos := c; pos < len(s.order); pos += clients {
			q, d := s.query(pos)
			ctx, sp := tr.open(context.Background(), spCoreQuery, c)
			objs, err := b.query(ctx, q.Range, q.Datasets)
			tr.end(sp)
			l.check(s, pos, d, objs, err)
		}
	})
	return time.Since(t0)
}

// passCost is the simulated cost of one pass, for comparing the two stacks.
type passCost struct {
	simNs, pagesRead, pagesWritten int64
}

// instrumentedRun is what part B measured.
type instrumentedRun struct {
	last     *stackB
	queries  int64
	timed    time.Duration
	passCost [][]passCost // per stream, per timed pass
	stacks   int
}

// runInstrumented follows the workload's schedule on the instrumented stack,
// with tracing on during the timed passes only. The last stack is left open
// for part C.
func (e *env) runInstrumented(spec workloadSpec, seconds float64, tr *tracer, r *result) (*instrumentedRun, error) {
	streams, err := e.streamsFor(spec)
	if err != nil {
		return nil, err
	}
	ls := newLanes(e.clientsOf(spec), 0, false, false)
	run := &instrumentedRun{passCost: make([][]passCost, len(streams))}
	timed := func(st stack, si int) error {
		b, s := st.(*stackB), streams[si]
		c0, st0 := b.dev.Clock(), b.dev.Stats()
		tr.on.Store(true)
		t0 := time.Now()
		b.pass(tr, s, ls)
		var qerr error
		if spec.quiesce {
			qerr = b.quiesce()
		}
		run.timed += time.Since(t0)
		tr.on.Store(false)
		st1 := b.dev.Stats()
		run.passCost[si] = append(run.passCost[si], passCost{
			simNs:        int64(b.dev.Clock() - c0),
			pagesRead:    st1.PageReads - st0.PageReads,
			pagesWritten: st1.PageWrites - st0.PageWrites,
		})
		run.queries += int64(len(s.order))
		return qerr
	}
	last, err := e.schedule(spec, streams, seconds, 1, hooks{
		open:    func() (stack, error) { return e.newStackB(spec, tr, r) },
		close:   func(st stack) { st.(*stackB).close() },
		untimed: func(st stack, s *stream) { st.(*stackB).pass(tr, s, ls) },
		verdict: ls[0],
		timed:   timed,
		setUp:   func(time.Duration) {},
		adapted: func(stack) { run.stacks++ },
	})
	if err != nil {
		return nil, err
	}
	run.last = last.(*stackB)
	ls.into(r)
	return run, nil
}

// tracedRun produces every per-layer metric for one workload.
func (e *env) tracedRun(spec workloadSpec, r *result) error {
	third := e.seconds / 3
	v := r.values
	for _, m := range perLayer {
		v[m.name] = 0
	}
	v["loadgen.timer_overshoot_us"] = timerOvershootUs()

	// U and A: the public stack, without and with per-query scopes.
	u, err := e.runPublic(spec, third, 1, false, r)
	if err != nil {
		return err
	}
	a, err := e.runPublic(spec, third, 1, true, r)
	if err != nil {
		return err
	}
	e.publicLayers(a, v)
	e.steadySim(a, v)
	v["loadgen.oracle_s"] = a.oracleS
	v["loadgen.samples"] = float64(a.samples())

	// B: the instrumented stack.
	tr := newTracer(spanCapacity)
	b, err := e.runInstrumented(spec, third, tr, r)
	if err != nil {
		return err
	}
	defer b.last.close()
	from := len(tr.spans()) // where part C's spans start
	if !spec.dispatch {
		e.sameSystem(a, b, r)
	}

	// C: direct calls into the layers below core, on B's last stack.
	if err := e.probeLayers(spec, b.last, tr, v); err != nil {
		return err
	}
	if err := e.probeBuild(tr, v); err != nil {
		return err
	}
	spans := tr.spans()
	cover := covered(spans)
	e.spanLayers(spans[:from], cover, b, v)
	e.probeSpanLayers(spans, from, cover, v)
	v["loadgen.trace_overhead_frac"] = 1 - ratio(ratio(float64(b.queries), b.timed.Seconds()), ratio(float64(u.queries), u.timed.Seconds()))
	exec := a.lanes.pooled(func(l *lane) []uint32 {
		if spec.dispatch {
			return l.exec
		}
		return l.lat
	})
	v["explorer.overhead_p50_us"] = (percentile(exec, 0.5) - percentile(durations(spans, spCoreQuery), 0.5)) / 1e3

	// P: faults and cluster.
	if err := e.probeFaults(spec, r, v); err != nil {
		return err
	}
	if err := e.probeCluster(spec, r, v); err != nil {
		return err
	}

	path, err := writeChromeTrace(e.traceDir, spec.name, spans, tr.dropped.Load())
	if err != nil {
		return err
	}
	r.info["trace_file"] = path
	r.info["spans"] = len(spans)
	r.info["spans_dropped"] = tr.dropped.Load()
	r.info["instrumented_stacks"] = b.stacks
	return nil
}

// timerOvershootUs measures how late a 50 µs sleep returns: the reason no
// workload emulates device time on the wall clock (see README).
func timerOvershootUs() float64 {
	const ask = 50 * time.Microsecond
	over := make([]float64, 200)
	for i := range over {
		t0 := time.Now()
		time.Sleep(ask)
		over[i] = float64(time.Since(t0)-ask) / 1e3
	}
	return median(over)
}

// publicLayers fills the metrics that come from part A: the dispatcher's
// split of a query's latency and the deltas of the layers' own ledgers.
// Counts are per Explorer: on the cold workloads the mean over the
// explorations, on the serving ones the movement during the timed passes.
func (e *env) publicLayers(a *publicRun, v map[string]float64) {
	d, n := a.deltas, float64(a.explorers)
	q := d["queries"]

	if a.spec.dispatch {
		wait := a.lanes.pooled(func(l *lane) []uint32 { return l.wait })
		exec := a.lanes.pooled(func(l *lane) []uint32 { return l.exec })
		var deliver []float64
		for _, l := range a.lanes {
			for i := range l.wait {
				deliver = append(deliver, float64(l.lat[i])-float64(l.wait[i])-float64(l.exec[i]))
			}
		}
		sort.Float64s(deliver)
		v["dispatcher.wait_p50_us"] = percentile(wait, 0.50) / 1e3
		v["dispatcher.wait_p99_us"] = percentile(wait, 0.99) / 1e3
		v["dispatcher.exec_p50_us"] = percentile(exec, 0.50) / 1e3
		v["dispatcher.exec_p99_us"] = percentile(exec, 0.99) / 1e3
		v["dispatcher.deliver_p50_us"] = percentile(deliver, 0.50) / 1e3
		// A worker is busy while it executes a query: the summed execution
		// times are the workers' busy ledger, without reading WorkerStats
		// from a dispatcher that is still open.
		var busy float64
		for _, ns := range exec {
			busy += float64(ns)
		}
		v["dispatcher.worker_busy_frac"] = ratio(busy/1e9, a.passWall.Seconds()*float64(e.clientsOf(a.spec)))
		v["dispatcher.not_completed"] = float64(a.notCompleted)
	}

	routed := d["rel_none"] + d["rel_exact"] + d["rel_partial"]
	v["core.route_exact_frac"] = ratio(d["rel_exact"], routed)
	v["core.route_partial_frac"] = ratio(d["rel_partial"], routed)
	v["core.route_none_frac"] = ratio(d["rel_none"], routed)
	v["core.parts_from_merge_frac"] = ratio(d["parts_merge"], d["parts_merge"]+d["parts_tree"])
	v["core.refinements"] = d["refinements"] / n
	v["core.trees_built"] = d["trees_built"] / n
	v["core.partitions_merged"] = d["partitions_merged"] / n
	v["core.merge_evictions"] = d["merge_evictions"] / n
	v["core.phase_build_sim_s"] = d["ph_build_ns"] / 1e9 / n
	v["core.phase_refine_sim_s"] = d["ph_refine_ns"] / 1e9 / n
	v["core.phase_tree_read_sim_s"] = d["ph_tree_read_ns"] / 1e9 / n
	v["core.phase_merge_read_sim_s"] = d["ph_merge_read_ns"] / 1e9 / n
	v["core.phase_merge_write_sim_s"] = d["ph_merge_write_ns"] / 1e9 / n
	v["core.cache_hit_frac"] = ratio(d["rc_hits"]+d["rc_containment"], d["rc_hits"]+d["rc_containment"]+d["rc_misses"])
	v["core.cache_containment_hits"] = d["rc_containment"] / n
	v["core.cache_zero_read_frac"] = ratio(d["rc_zero_read"], q)
	v["core.cache_evictions"] = d["rc_evictions"] / n
	v["core.cache_invalidations"] = d["rc_invalidations"] / n
	v["core.cache_capacity_final"] = a.gauges["rc_capacity"]
	v["core.share_attached_scans"] = d["share_attached"] / n
	v["core.share_shared_builds"] = d["share_builds"] / n
	v["core.maint_completed"] = d["maint_completed"] / n
	v["core.maint_coalesced"] = d["maint_coalesced"] / n
	v["core.maint_failed"] = d["maint_failed"] / n
	v["core.maint_queue_high_water"] = a.gauges["maint_queue_highwater"]
	v["core.maint_quiesce_ms"] = mean(a.quiesceMs)

	v["simdisk.cache_hit_frac"] = ratio(d["cache_hits"], d["cache_hits"]+d["page_reads"])
	v["simdisk.seeks_per_query"] = ratio(d["seeks"], q)
	v["simdisk.seq_frac"] = ratio(d["seq_pages"], d["seq_pages"]+d["seeks"])
	v["simdisk.busy_sim_s"] = d["busy_ns"] / 1e9 / n
	v["simdisk.queued_sim_s"] = d["queued_ns"] / 1e9 / n
	v["simdisk.coalesced_reads"] = d["coalesced_reads"] / n
	v["simdisk.coalesced_pages"] = d["coalesced_pages"] / n
}

// spanLayers fills the metrics that come from part B's spans.
func (e *env) spanLayers(spans []span, cover []int64, b *instrumentedRun, v map[string]float64) {
	self := selfTimes(spans, cover, spCoreQuery)
	v["core.query_self_p50_us"] = percentile(self, 0.50) / 1e3
	v["core.query_self_p99_us"] = percentile(self, 0.99) / 1e3

	var readOps, readPages, opNs, opPages, unattributed float64
	var byKind [2][numKinds]float64 // [read|write][kind] pages
	var opDur []int64
	for i := range spans {
		s := &spans[i]
		if s.end == 0 || (s.name != spDiskRead && s.name != spDiskWrite) {
			continue
		}
		opDur = append(opDur, s.dur())
		opNs += float64(s.dur())
		opPages += float64(s.pages)
		if s.trace == 0 {
			unattributed++
		}
		if s.name == spDiskRead {
			readOps++
			readPages += float64(s.pages)
			byKind[0][s.kind] += float64(s.pages)
		} else {
			byKind[1][s.kind] += float64(s.pages)
		}
	}
	sort.Slice(opDur, func(i, j int) bool { return opDur[i] < opDur[j] })
	n := float64(b.stacks)
	v["simdisk.read_ops_per_query"] = ratio(readOps, float64(b.queries))
	v["simdisk.pages_per_read_op"] = ratio(readPages, readOps)
	v["simdisk.op_self_p50_ns"] = percentile(opDur, 0.50)
	v["simdisk.op_self_ns_per_page"] = ratio(opNs, opPages)
	v["simdisk.raw_read_pages"] = byKind[0][kindRaw] / n
	v["simdisk.octree_read_pages"] = byKind[0][kindOctree] / n
	v["simdisk.octree_write_pages"] = byKind[1][kindOctree] / n
	v["simdisk.merge_read_pages"] = byKind[0][kindMerge] / n
	v["simdisk.merge_write_pages"] = byKind[1][kindMerge] / n
	v["simdisk.unattributed_ops"] = unattributed / n

	var leaves float64
	for d := 0; d < e.sz.datasets; d++ {
		if info, ok := b.last.eng.TreeInfo(object.DatasetID(d)); ok {
			leaves += float64(info.Leaves)
		}
	}
	v["octree.leaves"] = leaves
}

// sameSystem checks, on the serial workloads, that the instrumented stack
// charged the same simulated time and moved the same pages as the public
// stack did for the same pass: it is the same system, so what the spans say
// about it holds for the public stack too. On the paper preset everything is
// synchronous and the two must agree to the nanosecond and the page. On the
// serving preset the layout was placed by two background maintenance
// workers; converged one query at a time the two stacks have agreed exactly
// in every run so far (stacks_agree_exactly says whether they did), but the
// workers' order is the scheduler's, so the run is held only to pages that
// agree closely and a time that agrees roughly.
func (e *env) sameSystem(a *publicRun, b *instrumentedRun, r *result) {
	const closely, roughly = 0.05, 0.25
	within := func(x, y int64, share float64) bool {
		d := ratio(float64(x-y), float64(y))
		return d < share && d > -share
	}
	agree := true
	for si := range a.passCost {
		pa, pb := a.passCost[si], b.passCost[si]
		if len(pa) == 0 || len(pb) == 0 {
			continue
		}
		// Cold passes are whole explorations and all alike; on a converged
		// layout the later a pass, the more settled the buffer cache.
		ca, cb := pa[0], pb[0]
		if !a.spec.cold {
			ca, cb = pa[len(pa)-1], pb[len(pb)-1]
		}
		ok := ca == cb
		agree = agree && ok
		if a.spec.preset.asyncMaintenance() {
			ok = within(cb.simNs, ca.simNs, roughly) && within(cb.pagesRead, ca.pagesRead, closely) && cb.pagesWritten == ca.pagesWritten
			r.info["stacks_sim_diff_frac"] = ratio(float64(cb.simNs-ca.simNs), float64(ca.simNs))
		}
		r.invariant(ok, "%s: instrumented stack is not the public stack: pass of %s cost %+v there, %+v here",
			a.spec.name, a.streams[si].name, cb, ca)
	}
	r.info["stacks_agree_exactly"] = agree
}

// probeLayers is part C on the adapted engine: for a sample of the stream's
// queries it calls, under one span each, the octree walk the engine would
// do for every dataset of the query, the page-file read of the partitions
// the walk touched, the page codec on those pages, and the engine's
// combination key and merge-file lookup.
func (e *env) probeLayers(spec workloadSpec, b *stackB, tr *tracer, v map[string]float64) error {
	streams, err := e.streamsFor(spec)
	if err != nil {
		return err
	}
	s := streams[len(streams)-1]
	tr.on.Store(true)
	defer tr.on.Store(false)
	var partitions, decoded, returned float64
	var decodeAllocs, decodePages float64
	objBuf := make([]object.Object, 0, 4*object.PageCapacity)
	for pos := 0; pos < len(s.order); pos += sampleEvery {
		q, _ := s.query(pos)
		ordered := append([]object.DatasetID(nil), q.Datasets...)
		sort.Slice(ordered, func(i, j int) bool { return ordered[i] < ordered[j] })

		_, sp := tr.open(context.Background(), spCoreKeyOf, 0)
		for i := 0; i < microReps; i++ {
			sinkKey = core.KeyOf(q.Datasets)
		}
		tr.endUnits(sp, microReps)

		_, sp = tr.open(context.Background(), spCoreMergerLookup, 0)
		for i := 0; i < microReps; i++ {
			sinkFile, _ = b.eng.Merger().LookupNoTouch(ordered)
		}
		tr.endUnits(sp, microReps)

		for _, ds := range q.Datasets {
			tree := b.eng.Tree(ds)
			if tree == nil || !tree.Built() {
				continue
			}
			ctx, sp := tr.open(context.Background(), spOctreeWalk, 0)
			res, err := tree.QueryReadOnlyCtx(ctx, q.Range, nil)
			tr.end(sp)
			if err != nil {
				return fmt.Errorf("octree walk: %w", err)
			}
			partitions += float64(len(res.Touched))
			returned += float64(len(res.Objects))
			var runs []pagefile.Run
			for _, p := range res.Touched {
				decoded += float64(p.Count())
				runs = append(runs, p.Runs()...)
			}
			if len(runs) == 0 {
				continue
			}
			ctx, sp = tr.open(context.Background(), spPagefileRead, 0)
			objBuf, err = tree.File().ReadRunsIntoCtx(ctx, objBuf[:0], runs)
			tr.endUnits(sp, pagefile.Pages(runs))
			if err != nil {
				return fmt.Errorf("pagefile read: %w", err)
			}

			// The codec, on the first run's pages read straight from the
			// unwrapped storage.
			run := runs[0]
			raw, err := b.inner.ReadRunCtx(context.Background(), tree.File().ID(), run.Start, run.Count)
			if err != nil {
				return fmt.Errorf("read pages for codec: %w", err)
			}
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			_, sp = tr.open(context.Background(), spObjectDecode, 0)
			objBuf = objBuf[:0]
			for p := int64(0); p < run.Count; p++ {
				if objBuf, err = object.AppendPageInto(objBuf, raw[p*simdisk.PageSize:(p+1)*simdisk.PageSize]); err != nil {
					return fmt.Errorf("decode: %w", err)
				}
			}
			tr.endUnits(sp, run.Count)
			runtime.ReadMemStats(&m1)
			decodeAllocs += float64(m1.Mallocs - m0.Mallocs)
			decodePages += float64(run.Count)

			_, sp = tr.open(context.Background(), spObjectEncode, 0)
			var pages int64
			for at := 0; at < len(objBuf); at += object.PageCapacity {
				end := at + object.PageCapacity
				if end > len(objBuf) {
					end = len(objBuf)
				}
				if sinkPage, err = object.EncodePage(objBuf[at:end]); err != nil {
					return fmt.Errorf("encode: %w", err)
				}
				pages++
			}
			tr.endUnits(sp, pages)
		}
	}
	samples := float64((len(s.order) + sampleEvery - 1) / sampleEvery)
	v["octree.partitions_per_query"] = ratio(partitions, samples)
	v["octree.scan_ratio"] = ratio(decoded, returned)
	v["object.decode_allocs_per_page"] = ratio(decodeAllocs, decodePages)
	return nil
}

// Results of the probed calls, kept so the compiler cannot drop the calls.
var (
	sinkKey  core.ComboKey
	sinkFile *core.MergeFile
	sinkPage []byte
)

// probeBuild is the rest of part C, on a fresh deployment of one dataset: a
// full in-situ scan of the raw file, then the level-0 build of its octree.
// Three times over; the medians are reported.
func (e *env) probeBuild(tr *tracer, v map[string]float64) error {
	const reps = 3
	objs := e.data[0]
	var scanNs, scanSim, buildUs, buildSim []float64
	for i := 0; i < reps; i++ {
		inner := simdisk.NewStorage(simdisk.ReducedScaleCostModel(), cachePages, 1, 1, nil)
		dev := newTracedStorage(inner, tr)
		raw, err := rawfile.Write(dev, "ds0.raw", 0, objs)
		if err != nil {
			return err
		}
		dev.ResetClock()
		dev.DropCaches()
		tree, err := octree.New(dev, raw, geom.UnitBox(), octree.DefaultConfig())
		if err != nil {
			return err
		}
		tr.on.Store(true)
		ctx, sp := tr.open(context.Background(), spRawfileScan, 0)
		n, t0 := 0, time.Now()
		err = raw.ScanCtx(ctx, func(object.Object) error { n++; return nil })
		took := time.Since(t0)
		tr.endUnits(sp, raw.NumPages())
		if err != nil {
			return fmt.Errorf("rawfile scan: %w", err)
		}
		scanNs = append(scanNs, ratio(float64(took), float64(n)))
		scanSim = append(scanSim, ratio(float64(dev.Clock())/1e6, float64(raw.NumPages())/1e3))

		dev.ResetClock()
		dev.DropCaches()
		ctx, sp = tr.open(context.Background(), spOctreeBuild, 0)
		t0 = time.Now()
		err = tree.EnsureBuiltCtx(ctx)
		took = time.Since(t0)
		tr.end(sp)
		tr.on.Store(false)
		if err != nil {
			return fmt.Errorf("octree build: %w", err)
		}
		buildUs = append(buildUs, ratio(float64(took)/1e3, float64(len(objs))/1e3))
		buildSim = append(buildSim, float64(dev.Clock())/1e6)
		dev.Close()
	}
	v["rawfile.scan_ns_per_object"] = median(scanNs)
	v["rawfile.scan_sim_ms_per_kpage"] = median(scanSim)
	v["octree.build_us_per_kobj"] = median(buildUs)
	v["octree.build_sim_ms"] = median(buildSim)
	return nil
}

// probeSpanLayers fills the metrics that come from part C's spans, which
// start at index `from`.
func (e *env) probeSpanLayers(spans []span, from int, cover []int64, v map[string]float64) {
	var sum [numSpanNames]struct{ ns, self, units float64 }
	for i := from; i < len(spans); i++ {
		if s := &spans[i]; s.end > 0 {
			sum[s.name].ns += float64(s.dur())
			sum[s.name].self += float64(s.dur() - cover[i])
			sum[s.name].units += float64(s.pages)
		}
	}
	v["octree.walk_p50_us"] = percentile(durations(spans, spOctreeWalk), 0.5) / 1e3
	v["octree.walk_self_p50_us"] = percentile(selfTimes(spans, cover, spOctreeWalk), 0.5) / 1e3
	v["pagefile.read_self_ns_per_page"] = ratio(sum[spPagefileRead].self, sum[spPagefileRead].units)
	v["object.decode_ns_per_page"] = ratio(sum[spObjectDecode].ns, sum[spObjectDecode].units)
	v["object.encode_ns_per_page"] = ratio(sum[spObjectEncode].ns, sum[spObjectEncode].units)
	v["core.keyof_ns"] = ratio(sum[spCoreKeyOf].ns, sum[spCoreKeyOf].units)
	v["core.merger_lookup_ns"] = ratio(sum[spCoreMergerLookup].ns, sum[spCoreMergerLookup].units)
}

// probeFaults runs the start of the stream, from cold, on a public stack
// whose device injects transient read faults at 1% with four attempts per
// read: every reply must still be right, and the fault and retry ledgers
// must move.
func (e *env) probeFaults(spec workloadSpec, r *result, v map[string]float64) error {
	streams, err := e.streamsFor(spec)
	if err != nil {
		return err
	}
	s := streams[0]
	ex, _, err := e.newExplorer(spec.preset)
	if err != nil {
		return err
	}
	defer ex.Close()
	ex.SetFaultPlan(odyssey.FaultPlan{Seed: e.seed, TransientRate: 0.01})
	ex.SetRetryPolicy(odyssey.RetryPolicy{MaxAttempts: 4})
	before := takeLedger(ex)
	l := &lane{}
	n := len(s.order)
	if n > faultQueries {
		n = faultQueries
	}
	for pos := 0; pos < n; pos++ {
		q, d := s.query(pos)
		objs, err := ex.QueryCtx(context.Background(), q.Range, q.Datasets)
		l.check(s, pos, d, objs, err)
	}
	if err := ex.Quiesce(context.Background()); err != nil {
		return err
	}
	lanes{l}.into(r)
	d := ledgerDelta(before, takeLedger(ex))
	v["simdisk.transient_faults"] = d["transient_faults"]
	v["simdisk.retried_ops"] = d["retried_ops"]
	v["simdisk.retry_exhausted"] = d["retry_exhausted"]
	return nil
}

// probeCluster routes the start of the stream, serially and from cold,
// through a 2-shard Router with every dataset on both shards, shard 0
// crashed for a fifth of the ordinals, and through a single Explorer of the
// same preset for comparison.
func (e *env) probeCluster(spec workloadSpec, r *result, v map[string]float64) error {
	streams, err := e.streamsFor(spec)
	if err != nil {
		return err
	}
	s := streams[0]
	n := len(s.order)
	if n > e.sz.probeQueries {
		n = e.sz.probeQueries
	}
	opts, _ := spec.preset.options()

	type queryFn func(ctx context.Context, q odyssey.Box, datasets []odyssey.DatasetID) ([]odyssey.Object, error)
	drive := func(query queryFn) []uint32 {
		l := &lane{lat: make([]uint32, 0, n)}
		for pos := 0; pos < n; pos++ {
			q, d := s.query(pos)
			t0 := time.Now()
			objs, err := query(context.Background(), q.Range, q.Datasets)
			l.lat = append(l.lat, clampNs(time.Since(t0)))
			l.check(s, pos, d, objs, err)
		}
		lanes{l}.into(r)
		sort.Slice(l.lat, func(i, j int) bool { return l.lat[i] < l.lat[j] })
		return l.lat
	}

	single, _, err := e.newExplorer(spec.preset)
	if err != nil {
		return err
	}
	base := drive(single.QueryCtx)
	single.Close()

	router, err := cluster.New(cluster.Config{Shards: 2, Replicas: 2, Options: opts})
	if err != nil {
		return err
	}
	defer router.Close()
	for i, objs := range e.data {
		if err := router.AddDataset(object.DatasetID(i), objs); err != nil {
			return err
		}
	}
	router.SetShardFaultPlan(cluster.ShardFaultPlan{Faults: []cluster.ShardFault{
		{Shard: 0, CrashAfter: int64(n / 4), CrashFor: int64(n / 5)},
	}})
	routed := drive(router.QueryCtx)
	st := router.Stats()
	v["cluster.route_overhead_p50_us"] = (percentile(routed, 0.5) - percentile(base, 0.5)) / 1e3
	v["cluster.sub_queries_per_query"] = ratio(float64(st.SubQueries), float64(st.Queries))
	v["cluster.failovers"] = float64(st.Failovers)
	v["cluster.shard_rejects"] = float64(st.ShardRejects)
	v["cluster.failed"] = float64(st.Failed)
	v["cluster.wasted_sim_frac"] = ratio(float64(st.WastedSim), float64(st.ChargedSim+st.WastedSim))
	return nil
}
