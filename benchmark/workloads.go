package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	odyssey "spaceodyssey"
	"spaceodyssey/internal/object"
	"spaceodyssey/internal/simdisk"
	"spaceodyssey/internal/workload"
)

// workloadSpec describes one closed-loop workload. All four follow the same
// schedule; they differ only in these fields.
type workloadSpec struct {
	name   string
	preset preset
	// cold: every timed pass is a whole exploration on a fresh Explorer,
	// from raw files. Otherwise one Explorer is converged on the stream
	// during set-up and the timed passes replay the stream on it.
	cold bool
	// dispatch: clients submit through a Dispatcher with as many workers as
	// clients. Otherwise one client calls the Explorer directly.
	dispatch bool
	// flushBetween: the result cache is flushed before every pass.
	flushBetween bool
	// quiesce: a timed pass ends only when background maintenance has
	// drained.
	quiesce bool
	streams func(sz sizeSpec, seed int64) ([]*stream, error)
}

func one(f func(sizeSpec, int64) (*stream, error)) func(sizeSpec, int64) ([]*stream, error) {
	return func(sz sizeSpec, seed int64) ([]*stream, error) {
		s, err := f(sz, seed)
		return []*stream{s}, err
	}
}

var workloads = []workloadSpec{
	{name: "explore_cold", preset: paperPreset, cold: true, streams: exploreStreams},
	{name: "serve_hot", preset: servingPreset, dispatch: true, streams: one(hotStream)},
	{name: "serve_scan", preset: servingPreset, flushBetween: true, streams: one(scanStream)},
	{name: "adapt_concurrent", preset: servingPreset, cold: true, dispatch: true, quiesce: true, streams: one(driftStream)},
}

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// env is what every workload of an invocation shares.
type env struct {
	sz       sizeSpec
	seed     int64
	seconds  float64
	clients  int
	data     [][]object.Object
	oracle   *oracle
	traceDir string
	datagenS float64
	streams  map[string]*streamSet
}

// streamSet is a workload's streams with the oracle's answers filled in.
type streamSet struct {
	streams []*stream
	oracleS float64
}

func newEnv(sz sizeSpec, seed int64, seconds float64, traceDir string) *env {
	clients := runtime.GOMAXPROCS(0)
	if clients > 4 {
		clients = 4
	}
	t0 := time.Now()
	data := generateData(sz)
	return &env{
		sz: sz, seed: seed, seconds: seconds, clients: clients,
		data: data, oracle: newOracle(data), traceDir: traceDir,
		datagenS: time.Since(t0).Seconds(),
		streams:  map[string]*streamSet{},
	}
}

// streamSetFor generates the workload's streams from the seed and has the
// oracle answer every distinct query, once per invocation.
func (e *env) streamSetFor(spec workloadSpec) (*streamSet, error) {
	if set, ok := e.streams[spec.name]; ok {
		return set, nil
	}
	streams, err := spec.streams(e.sz, e.seed)
	if err != nil {
		return nil, err
	}
	took, err := e.oracle.fill(streams...)
	if err != nil {
		return nil, err
	}
	set := &streamSet{streams: streams, oracleS: took.Seconds()}
	e.streams[spec.name] = set
	return set, nil
}

func (e *env) streamsFor(spec workloadSpec) ([]*stream, error) {
	set, err := e.streamSetFor(spec)
	if err != nil {
		return nil, err
	}
	return set.streams, nil
}

func (e *env) clientsOf(spec workloadSpec) int {
	if spec.dispatch {
		return e.clients
	}
	return 1
}

// laneCapacity sizes the latency buffers so the timed loop does not grow
// them: the hot workload answers up to ~100k queries/s.
func (e *env) laneCapacity(spec workloadSpec) int {
	perSecond := 20000
	if spec.dispatch && !spec.cold {
		perSecond = 120000
	}
	return int(e.seconds*float64(perSecond))/e.clientsOf(spec) + 4096
}

// publicStack is the system as its users see it: an Explorer, and for the
// dispatching workloads a Dispatcher in front of it.
type publicStack struct {
	ex      *odyssey.Explorer
	disp    *odyssey.Dispatcher
	replies []chan odyssey.BatchResult // one per client
}

// newExplorer opens an Explorer of the preset and registers the datasets.
// It also returns the preset's fields Options no longer has.
func (e *env) newExplorer(p preset) (*odyssey.Explorer, []string, error) {
	opts, missing := p.options()
	ex, err := odyssey.NewExplorer(opts)
	if err != nil {
		return nil, missing, err
	}
	for i, objs := range e.data {
		if err := ex.AddDataset(object.DatasetID(i), objs); err != nil {
			ex.Close()
			return nil, missing, err
		}
	}
	return ex, missing, nil
}

func (e *env) newPublicStack(spec workloadSpec, r *result) (*publicStack, error) {
	ex, missing, err := e.newExplorer(spec.preset)
	if len(missing) > 0 {
		r.info["preset_missing_fields"] = missing
	}
	if err != nil {
		return nil, err
	}
	p := &publicStack{ex: ex}
	if spec.dispatch {
		clients := e.clientsOf(spec)
		p.disp = odyssey.NewDispatcher(ex, clients)
		p.replies = make([]chan odyssey.BatchResult, clients)
		for c := range p.replies {
			p.replies[c] = make(chan odyssey.BatchResult, 1)
		}
	}
	return p, nil
}

func (p *publicStack) answer(q workload.Query) ([]object.Object, error) {
	return p.ex.QueryCtx(context.Background(), q.Range, q.Datasets)
}
func (p *publicStack) quiesce() error    { return p.ex.Quiesce(context.Background()) }
func (p *publicStack) flushResultCache() { p.ex.FlushResultCache() }

// close shuts the stack down and returns how many submissions its
// dispatcher did not complete (the ledger is exact once it is closed).
func (p *publicStack) close() (notCompleted int64) {
	if p.disp != nil {
		p.disp.Close()
		adm := p.disp.AdmissionStats()
		notCompleted = adm.Rejected + adm.Canceled + adm.Failed
	}
	p.ex.Close()
	return notCompleted
}

// stack is what the schedule of a workload needs of a system under test.
// The public stack and the traced run's instrumented stack both are one.
type stack interface {
	// answer runs one query on the caller's goroutine, past any dispatcher.
	answer(q workload.Query) ([]object.Object, error)
	quiesce() error
	flushResultCache()
}

// hooks are what a run does at the events of the schedule.
type hooks struct {
	open    func() (stack, error)        // a fresh stack: data registered, nothing indexed
	close   func(st stack)               // the stack is done with
	untimed func(st stack, s *stream)    // a pass nobody measures: the warm-up
	verdict *lane                        // where the convergence passes' replies are judged
	timed   func(st stack, si int) error // a measured pass of stream si
	setUp   func(took time.Duration)     // a stack was set up; this is how long it took
	adapted func(st stack)               // the stack's layout has settled on its stream
}

// schedule is the order of events of one run of a workload, the same on
// either stack. A cold workload warms the process up with one untimed
// exploration, then explores whole cycles of its streams, each on a fresh
// stack, until the time is used. A serving workload sets up `setups` times
// (register the data, converge the layout on the stream, quiesce) and keeps
// the last; one untimed warm-up pass and a collection later it replays the
// stream until the time is used. The last stack is returned open.
func (e *env) schedule(spec workloadSpec, streams []*stream, seconds float64, setups int, h hooks) (last stack, err error) {
	// next replaces the last stack with a fresh one and says when its
	// set-up began: after the old stack is closed and collected, so that a
	// set-up neither pays for its predecessor's garbage nor depends on it.
	next := func() (stack, time.Time, error) {
		if last != nil {
			h.close(last)
			last = nil
		}
		runtime.GC()
		began := time.Now()
		last, err = h.open()
		return last, began, err
	}
	defer func() {
		if err != nil && last != nil {
			h.close(last)
			last = nil
		}
	}()
	if spec.cold {
		warm, began, err := next()
		if err != nil {
			return nil, err
		}
		h.setUp(time.Since(began))
		h.untimed(warm, streams[0])
		started := time.Now()
		for cycle := 0; anotherCycle(cycle, time.Since(started).Seconds(), seconds); cycle++ {
			for si := range streams {
				st, began, err := next()
				if err != nil {
					return nil, err
				}
				h.setUp(time.Since(began))
				runtime.GC()
				if err = h.timed(st, si); err != nil {
					return nil, err
				}
				h.adapted(st)
			}
		}
		return last, nil
	}
	s := streams[0]
	for i := 0; i < setups; i++ {
		st, began, err := next()
		if err != nil {
			return nil, err
		}
		// Converge one query at a time, letting background maintenance
		// drain after each: with clients racing the maintenance workers the
		// same stream settles into one of several layouts (on serve_hot,
		// 60 allocations per query or 49), and the timed passes would
		// measure which.
		for c := 0; c < e.sz.convergePasses; c++ {
			for pos := range s.order {
				q, d := s.query(pos)
				objs, qerr := st.answer(q)
				h.verdict.check(s, pos, d, objs, qerr)
				if err = st.quiesce(); err != nil {
					return nil, err
				}
			}
		}
		h.setUp(time.Since(began))
		h.adapted(st)
	}
	if spec.flushBetween {
		last.flushResultCache()
	}
	h.untimed(last, s)
	runtime.GC()
	started := time.Now()
	for pass := 0; anotherCycle(pass, time.Since(started).Seconds(), seconds); pass++ {
		if spec.flushBetween {
			last.flushResultCache()
		}
		if err = h.timed(last, 0); err != nil {
			return nil, err
		}
	}
	return last, nil
}

// pass sends the whole stream once: client c sends positions c, c+clients,
// ... and waits for each reply before sending the next. Every reply is
// checked against the oracle. With scoped set, each query carries its own
// simdisk.OpScope so its simulated cost can be read back, and the
// dispatcher's wait and execution times are kept.
func (p *publicStack) pass(s *stream, ls lanes, scoped bool) time.Duration {
	clients := len(ls)
	t0 := time.Now()
	runClients(clients, func(c int) {
		l := ls[c]
		bg := context.Background()
		for pos := c; pos < len(s.order); pos += clients {
			q, d := s.query(pos)
			if p.disp == nil {
				start := time.Now()
				objs, sim, err := p.ex.QueryTimedCtx(bg, q.Range, q.Datasets)
				l.lat = append(l.lat, clampNs(time.Since(start)))
				if l.simNs != nil {
					l.simNs = append(l.simNs, int64(sim))
				}
				l.check(s, pos, d, objs, err)
				continue
			}
			ctx := bg
			var scope *simdisk.OpScope
			if scoped {
				ctx, scope = simdisk.WithOpScope(bg, simdisk.PriForeground)
			}
			start := time.Now()
			if err := p.disp.SubmitCtx(ctx, pos, q, p.replies[c]); err != nil {
				l.check(s, pos, d, nil, err)
				continue
			}
			r := <-p.replies[c]
			l.lat = append(l.lat, clampNs(time.Since(start)))
			if scoped {
				l.wait = append(l.wait, clampNs(r.Wait))
				l.exec = append(l.exec, clampNs(r.Wall))
				l.simNs = append(l.simNs, int64(scope.Total()))
			}
			l.check(s, pos, d, r.Objects, r.Err)
		}
	})
	return time.Since(t0)
}

// lifetime is what adapting the layout to a stream cost one Explorer, read
// when the layout has settled: simulated device time and pages moved since
// the raw files were registered, and the space the adapted layout takes.
type lifetime struct {
	simS, pagesRead, pagesWritten, spaceAmp float64
}

func (e *env) lifetimeOf(ex *odyssey.Explorer) lifetime {
	st := ex.DiskStats()
	return lifetime{
		simS:         ex.Clock().Seconds(),
		pagesRead:    float64(st.PageReads),
		pagesWritten: float64(st.PageWrites),
		spaceAmp:     spaceAmp(ex, e.sz.datasets),
	}
}

// publicRun is everything runPublic measured, before it is turned into
// metrics: the end-to-end run and the traced run's public phases read
// different parts of it.
type publicRun struct {
	spec         workloadSpec
	streams      []*stream
	oracleS      float64
	lanes        lanes
	setups       []float64  // seconds, one per set-up
	lifetimes    []lifetime // one per Explorer whose layout settled
	passes       int
	queries      int64
	timed        time.Duration // inside timed passes
	alloc        allocMeter
	liveHeap     float64       // bytes, the system's share
	deltas       counters      // ledger movement inside timed passes, summed
	explorers    int           // Explorers the deltas were summed over
	gauges       counters      // last Explorer's gauges at the end
	quiesceMs    []float64     // time the closing Quiesce of a pass took
	passCost     [][]passCost  // per stream: simulated cost of each timed pass
	cycles       []cycleStats  // host timings of each cycle of the streams
	notCompleted int64         // submissions the dispatchers did not complete
	passWall     time.Duration // timed passes without their closing quiesce
}

// runPublic drives one workload on the public stack for about `seconds` of
// timed passes. A serving workload is set up `setups` times over, so that
// the median can be reported. With scoped set every query carries an OpScope
// (the traced run's public phase); the end-to-end run leaves it off.
func (e *env) runPublic(spec workloadSpec, seconds float64, setups int, scoped bool, r *result) (*publicRun, error) {
	set, err := e.streamSetFor(spec)
	if err != nil {
		return nil, err
	}
	streams := set.streams
	clients := e.clientsOf(spec)
	run := &publicRun{
		spec: spec, streams: streams, oracleS: set.oracleS,
		lanes:    newLanes(clients, e.laneCapacity(spec), scoped || !spec.dispatch, scoped && spec.dispatch),
		deltas:   counters{},
		passCost: make([][]passCost, len(streams)),
	}
	scratch := newLanes(clients, len(streams[0].order)/clients+1, false, false)
	baseline := heapAfterGC()

	// timed runs one measured pass and books its cost.
	var cycleWall time.Duration
	var cycleQueries int
	cycleStart := run.lanes.marks()
	timed := func(st stack, si int) error {
		p, s := st.(*publicStack), streams[si]
		before := takeLedger(p.ex)
		run.alloc.start()
		t0 := time.Now()
		run.passWall += p.pass(s, run.lanes, scoped)
		if spec.quiesce {
			q0 := time.Now()
			if err := p.quiesce(); err != nil {
				return err
			}
			run.quiesceMs = append(run.quiesceMs, float64(time.Since(q0))/1e6)
		}
		wall := time.Since(t0)
		run.timed += wall
		run.alloc.stop()
		// Timings are booked per cycle of the streams, so that every figure
		// weighs the streams alike, and the median cycle is reported, so
		// that a pass the machine took time away from does not decide it.
		cycleWall += wall
		cycleQueries += len(s.order)
		if si == len(streams)-1 {
			lat := run.lanes.pooledSince(cycleStart)
			run.cycles = append(run.cycles, cycleStats{
				qps: ratio(float64(cycleQueries), cycleWall.Seconds()),
				p50: percentile(lat, 0.50), p95: percentile(lat, 0.95), p99: percentile(lat, 0.99),
			})
			cycleWall, cycleQueries, cycleStart = 0, 0, run.lanes.marks()
		}
		after := takeLedger(p.ex)
		run.deltas.add(ledgerDelta(before, after))
		run.passCost[si] = append(run.passCost[si], passCost{
			simNs:        int64(after.clock - before.clock),
			pagesRead:    after.disk.PageReads - before.disk.PageReads,
			pagesWritten: after.disk.PageWrites - before.disk.PageWrites,
		})
		run.passes++
		run.queries += int64(len(s.order))
		return nil
	}
	closeStack := func(st stack) { run.notCompleted += st.(*publicStack).close() }
	last, err := e.schedule(spec, streams, seconds, setups, hooks{
		open:  func() (stack, error) { return e.newPublicStack(spec, r) },
		close: closeStack,
		untimed: func(st stack, s *stream) {
			for _, l := range scratch {
				l.lat = l.lat[:0]
			}
			st.(*publicStack).pass(s, scratch, false)
		},
		verdict: scratch[0],
		timed:   timed,
		setUp:   func(took time.Duration) { run.setups = append(run.setups, took.Seconds()) },
		adapted: func(st stack) { run.lifetimes = append(run.lifetimes, e.lifetimeOf(st.(*publicStack).ex)) },
	})
	if err != nil {
		return nil, err
	}
	run.explorers = 1
	if spec.cold {
		run.explorers = run.passes
	}
	run.gauges = takeLedger(last.(*publicStack).ex).gauges()
	if final := heapAfterGC(); final > baseline {
		run.liveHeap = float64(final - baseline)
	}
	closeStack(last)
	scratch.into(r)
	run.lanes.into(r)
	r.info["passes"] = run.passes
	r.info["explorers"] = run.explorers
	r.info["setups"] = len(run.setups)
	r.info["clients"] = clients
	r.info["latency_samples"] = run.samples()
	r.info["timed_s"] = run.timed.Seconds()
	r.info["cycle_queries_per_s"] = fmt.Sprintf("%.0f", run.cycleFigures(func(c cycleStats) float64 { return c.qps }))
	r.info["oracle_s"] = run.oracleS
	return run, nil
}

// cycleStats are the host timings of one cycle of the streams: queries per
// second and latency percentiles (ns) over the cycle's queries.
type cycleStats struct {
	qps, p50, p95, p99 float64
}

func (run *publicRun) cycleFigures(pick func(cycleStats) float64) []float64 {
	out := make([]float64, len(run.cycles))
	for i, c := range run.cycles {
		out[i] = pick(c)
	}
	return out
}

// samples is how many latencies the run's clients recorded.
func (run *publicRun) samples() int {
	n := 0
	for _, l := range run.lanes {
		n += len(l.lat)
	}
	return n
}

// anotherCycle decides whether to start one more cycle of the streams after
// `done` cycles took `elapsed` seconds: always a first, then another as long
// as at least half of it fits in the time asked for. Rounding to the
// nearest cycle keeps a workload whose cycle is about as long as the run
// (explore_cold: 10 s) from flipping between one cycle and two.
func anotherCycle(done int, elapsed, seconds float64) bool {
	if done == 0 {
		return true
	}
	return elapsed+elapsed/float64(done)/2 <= seconds
}

// endToEnd turns a public run into the end-to-end metrics, and the
// steady-state simulated figures that are printed beside them.
func (e *env) endToEnd(run *publicRun, r *result) {
	q := float64(run.queries)
	v := r.values
	v["setup_s"] = median(run.setups)
	v["queries_per_s"] = median(run.cycleFigures(func(c cycleStats) float64 { return c.qps }))
	v["lat_p50_us"] = median(run.cycleFigures(func(c cycleStats) float64 { return c.p50 })) / 1e3
	v["lat_p95_us"] = median(run.cycleFigures(func(c cycleStats) float64 { return c.p95 })) / 1e3
	v["allocs_per_query"] = ratio(float64(run.alloc.mallocs), q)
	v["alloc_bytes_per_query"] = ratio(float64(run.alloc.bytes), q)
	v["live_heap_mb"] = run.liveHeap / (1 << 20)
	r.extra["lat_p99_us"] = median(run.cycleFigures(func(c cycleStats) float64 { return c.p99 })) / 1e3

	var lt lifetime
	for _, l := range run.lifetimes {
		lt.simS += l.simS
		lt.pagesRead += l.pagesRead
		lt.pagesWritten += l.pagesWritten
		lt.spaceAmp += l.spaceAmp
	}
	n := float64(len(run.lifetimes))
	v["adapt_pages_read"] = lt.pagesRead / n
	v["adapt_pages_written"] = lt.pagesWritten / n
	v["space_amp"] = lt.spaceAmp / n

	e.steadySim(run, r.extra)
	if run.spec.cold && !run.spec.dispatch && !run.spec.preset.asyncMaintenance() {
		e.checkRepeats(run, r)
	}
}

// steadySim fills the simulated-currency figures: seconds from the raw
// files to the adapted layout, then the timed passes.
func (e *env) steadySim(run *publicRun, out map[string]float64) {
	var adapt []float64
	for _, l := range run.lifetimes {
		adapt = append(adapt, l.simS)
	}
	out["sim.adapt_s"] = mean(adapt)
	q := run.deltas["queries"]
	out["sim.ms_per_query"] = ratio(run.deltas["clock_ns"]/1e6, q)
	out["sim.pages_read_per_query"] = ratio(run.deltas["page_reads"], q)
	out["sim.pages_written_per_query"] = ratio(run.deltas["page_writes"], q)
	// First and converged query of each pass, from the per-query simulated
	// latencies (lane 0 holds them in stream order when one client runs).
	out["sim.first_query_ms"], out["sim.converged_ms_per_query"] = 0, 0
	if len(run.lanes) != 1 || len(run.lanes[0].simNs) == 0 {
		return
	}
	sim := run.lanes[0].simNs
	var first, tail []float64
	for at := 0; at < len(sim); {
		n := len(run.streams[(len(first))%len(run.streams)].order)
		if at+n > len(sim) {
			break
		}
		first = append(first, float64(sim[at])/1e6)
		t := n / 10
		if t < 1 {
			t = 1
		}
		var sum float64
		for _, ns := range sim[at+n-t : at+n] {
			sum += float64(ns)
		}
		tail = append(tail, sum/float64(t)/1e6)
		at += n
	}
	out["sim.first_query_ms"] = mean(first)
	out["sim.converged_ms_per_query"] = mean(tail)
}

// checkRepeats holds the paper preset to its contract: a 1x1 serial
// exploration of the same queries by a synchronous engine charges the same
// simulated time and moves the same pages every time it is repeated.
func (e *env) checkRepeats(run *publicRun, r *result) {
	n := len(run.streams)
	for i, l := range run.lifetimes {
		if first := run.lifetimes[i%n]; l != first {
			r.invariant(false, "%s: repeat %d of mix %s differs from the first (%+v vs %+v)",
				run.spec.name, i/n, run.streams[i%n].name, l, first)
		}
	}
}
