package odyssey

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"spaceodyssey/internal/simdisk"
)

// Sentinel errors of the serving layer.
var (
	// ErrClosed is returned by Submit/SubmitCtx after Close. Submitting to a
	// closed dispatcher is always a clean error, never a panic, even when
	// racing a concurrent Close.
	ErrClosed = errors.New("odyssey: dispatcher closed")

	// ErrOverloaded is the admission controller's fast-fail: the in-flight
	// limit is reached and no slot freed up within the queue-wait budget.
	// Callers should shed the query (or retry with backoff) instead of
	// queueing behind an already-saturated pool.
	ErrOverloaded = errors.New("odyssey: dispatcher overloaded")
)

// IsCanceled reports whether err is a cancellation outcome: a wrapped
// ErrCanceled from the storage stack, or a bare context error. Rejections
// (ErrOverloaded) and closed-dispatcher errors are not cancellations.
func IsCanceled(err error) bool {
	return err != nil && (errors.Is(err, ErrCanceled) ||
		errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded))
}

// BatchResult is the outcome of one query executed by the worker pool.
type BatchResult struct {
	// Index identifies the query: its position in the QueryBatch slice, or
	// its arrival order on the QueryConcurrent input channel.
	Index int
	// Query is the executed query.
	Query Query
	// Objects is the result set (nil when Err is set).
	Objects []Object
	// Worker is the pool worker that served the query, or SweptWorker (-1)
	// when the sweeper returned a dead-on-arrival job straight from the
	// queue without it ever reaching a worker.
	Worker int
	// Wait is the queue wait: submit to worker pickup (or to the sweeper's
	// early return). A query canceled while still queued is returned with
	// its real Wait and a ~0 Wall.
	Wait time.Duration
	// Wall is the wall-clock time the query took on its worker.
	Wall time.Duration
	// Err is the query's error, if any. Cancellation errors satisfy
	// IsCanceled (and errors.Is against ErrCanceled, context.Canceled or
	// context.DeadlineExceeded).
	Err error
}

// SweptWorker is the BatchResult.Worker value of a query the sweeper
// returned while it was still queued: no pool worker ever touched it.
const SweptWorker = -1

// WorkerStats summarizes one pool worker's activity.
type WorkerStats struct {
	// Worker is the worker's index in the pool.
	Worker int
	// Queries is how many queries the worker served (canceled included).
	Queries int
	// Canceled is how many of those ended in a cancellation error.
	Canceled int
	// Busy is the wall-clock time the worker spent inside Explorer.Query.
	Busy time.Duration
}

// Throughput returns the worker's queries per wall-clock second of busy
// time (0 when idle).
func (w WorkerStats) Throughput() float64 {
	if w.Busy <= 0 {
		return 0
	}
	return float64(w.Queries) / w.Busy.Seconds()
}

// AdmissionConfig configures the dispatcher's admission controller. The
// zero value disables admission control entirely: every Submit is admitted,
// with the bounded job queue providing blocking backpressure as before.
type AdmissionConfig struct {
	// MaxInFlight caps admitted-but-unfinished queries (queued + running).
	// At the cap, SubmitCtx fast-fails with ErrOverloaded instead of
	// blocking (after at most QueueWait). 0 disables the cap.
	MaxInFlight int
	// Deadline is the per-query deadline attached at admission to any query
	// whose own context carries none. It covers job-queue wait plus
	// execution; time spent waiting for an admission slot (bounded by
	// QueueWait) comes before the deadline is attached. 0 attaches no
	// deadline.
	Deadline time.Duration
	// QueueWait is how long SubmitCtx may wait for an in-flight slot before
	// failing with ErrOverloaded. 0 means fail immediately (pure fast-fail).
	// Only meaningful with MaxInFlight > 0.
	QueueWait time.Duration
	// BatchWindow, when positive, turns on micro-batching: admitted queries
	// are staged for up to this long and released to the worker pool
	// grouped by dataset combination and query locality (a coarse spatial
	// cell of the query center), so concurrent workers pull overlapping
	// work scan sharing (Options.ShareScans) can coalesce into
	// single-flight reads. The window adds up to ~2x its length to queue
	// wait (it buys coalesced I/O with a little latency); 0 (the default)
	// dispatches every submission immediately. Staging never blocks, and
	// the stage is bounded: with MaxInFlight set admission caps it, and
	// without admission it holds at most batchStageCap jobs — beyond that,
	// submissions bypass the stage and take the direct dispatch path with
	// its ordinary blocking backpressure (they lose grouping, not safety).
	BatchWindow time.Duration
}

// batchStageCap bounds the micro-batcher's stage when no admission cap
// does: a flush stalled on a saturated pool must shed overflow submissions
// to the blocking direct path instead of buffering an unbounded backlog.
const batchStageCap = 4096

// AdmissionStats counts the admission controller's decisions and outcomes.
type AdmissionStats struct {
	// Admitted is how many queries passed admission and were enqueued.
	Admitted int64
	// Rejected is how many submissions fast-failed with ErrOverloaded.
	Rejected int64
	// Canceled is how many admitted queries ended in a cancellation error
	// (deadline expiry in queue or mid-execution, caller cancellation).
	// Submissions refused before admission — a context already dead at
	// Submit, or canceled while waiting for a slot — appear in no bucket,
	// so Admitted == Completed + Canceled + Failed once the dispatcher is
	// closed.
	Canceled int64
	// Swept is how many of the canceled queries the sweeper returned
	// straight from the queue — their context died before any worker
	// picked them up, and instead of occupying queue slots until a worker
	// skipped them they were delivered back to the submitter immediately.
	// Swept queries are included in Canceled.
	Swept int64
	// Completed is how many admitted queries finished successfully.
	Completed int64
	// Failed is how many admitted queries ended in a non-cancellation error
	// (e.g. an unknown dataset).
	Failed int64
	// Batches and BatchedQueries count the micro-batcher's activity
	// (AdmissionConfig.BatchWindow): how many distinct coalescible groups
	// (same combination, same coarse query cell) the flushes released to
	// the pool, and how many queries went through the stage. Zero with
	// batching off.
	Batches        int64
	BatchedQueries int64
}

// Dispatcher is a bounded worker pool serving queries against one Explorer,
// with optional admission control (in-flight cap, default deadlines,
// fast-fail under overload). It is the concurrency front-end the batch APIs
// are built on: submit jobs from any goroutine, close the dispatcher to
// drain, then read per-worker statistics. A Dispatcher must not be reused
// after Close.
type Dispatcher struct {
	ex    *Explorer
	cfg   AdmissionConfig
	jobs  chan dispatchJob
	slots chan struct{} // in-flight semaphore; nil when MaxInFlight == 0
	wg    sync.WaitGroup
	// sweepWg counts the registered sweeper callbacks that have neither
	// returned nor been stopped before starting; Close drains it after the
	// workers so no sweeper delivery can race the caller closing its result
	// channel.
	sweepWg sync.WaitGroup
	stats   []WorkerStats

	admitted  atomic.Int64
	rejected  atomic.Int64
	canceled  atomic.Int64
	swept     atomic.Int64
	completed atomic.Int64
	failed    atomic.Int64

	// sendMu orders Submit (shared) against Close (exclusive) so a racing
	// Submit can never send on the closed jobs channel.
	sendMu  sync.RWMutex
	closed  bool
	closing sync.Once

	// Micro-batching (AdmissionConfig.BatchWindow): admitted jobs are
	// staged in batchBuf (guarded by batchMu) and a dedicated batcher
	// goroutine flushes them every window, grouped by combination and
	// query locality, into the jobs channel. batchStop/batchDone bound the
	// batcher's lifetime inside Close, before the jobs channel closes.
	batchMu   sync.Mutex
	batchBuf  []dispatchJob
	batchStop chan struct{}
	batchDone chan struct{}
	batches   atomic.Int64
	batched   atomic.Int64
}

type dispatchJob struct {
	index     int
	query     Query
	ctx       context.Context
	cancel    context.CancelFunc // non-nil when the dispatcher attached a deadline
	submitted time.Time
	out       chan<- BatchResult

	// sweep is the claim state shared with the sweeper callback on the job's
	// context; nil for a job with an uncancellable context (nothing to
	// sweep).
	sweep *sweepState
}

// sweepState arbitrates between the worker that pops a job and the sweeper
// callback registered on its context: whoever flips done first owns
// delivery. stop unregisters the callback; SubmitCtx publishes it (armed)
// after the job is queued, so a worker that pops the job earlier skips it
// and SubmitCtx, finding done already set, stops the callback itself. job is
// the sweeper's copy, kept here so that a job with nothing to sweep
// allocates nothing.
type sweepState struct {
	done  atomic.Bool
	armed atomic.Bool
	stop  func() bool
	job   dispatchJob
}

// NewDispatcher starts a pool of the given number of workers over the
// Explorer, with admission control disabled. workers <= 0 defaults to
// GOMAXPROCS.
func NewDispatcher(ex *Explorer, workers int) *Dispatcher {
	return NewDispatcherWithAdmission(ex, workers, AdmissionConfig{})
}

// NewDispatcherWithAdmission starts a pool with the given admission policy.
// The job queue is sized to hold MaxInFlight jobs (at least 2x workers), so
// an admitted query never blocks on the queue itself — admission is the only
// gate, and it fails fast.
func NewDispatcherWithAdmission(ex *Explorer, workers int, cfg AdmissionConfig) *Dispatcher {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	qcap := 2 * workers
	if cfg.MaxInFlight > qcap {
		qcap = cfg.MaxInFlight
	}
	d := &Dispatcher{
		ex:    ex,
		cfg:   cfg,
		jobs:  make(chan dispatchJob, qcap),
		stats: make([]WorkerStats, workers),
	}
	if cfg.MaxInFlight > 0 {
		d.slots = make(chan struct{}, cfg.MaxInFlight)
	}
	if cfg.BatchWindow > 0 {
		d.batchStop = make(chan struct{})
		d.batchDone = make(chan struct{})
		go d.batcher()
	}
	for w := 0; w < workers; w++ {
		d.wg.Add(1)
		go d.worker(w)
	}
	return d
}

// Workers returns the pool size.
func (d *Dispatcher) Workers() int { return len(d.stats) }

// AdmissionStats returns a snapshot of the admission counters. Under
// concurrent load the snapshot is a consistent per-counter sum, not an
// instantaneous cross-counter cut; after Close it is exact.
func (d *Dispatcher) AdmissionStats() AdmissionStats {
	return AdmissionStats{
		Admitted:       d.admitted.Load(),
		Rejected:       d.rejected.Load(),
		Canceled:       d.canceled.Load(),
		Swept:          d.swept.Load(),
		Completed:      d.completed.Load(),
		Failed:         d.failed.Load(),
		Batches:        d.batches.Load(),
		BatchedQueries: d.batched.Load(),
	}
}

// Topology reports the storage layout of the Explorer the pool serves.
func (d *Dispatcher) Topology() Topology { return d.ex.Topology() }

// Quiesce waits until the served Explorer's background maintenance
// pipeline has drained (see Explorer.Quiesce). Serving benchmarks call it
// after Close to include layout convergence in an async run's
// time-to-convergence without racing the measurement against background
// workers. Immediate when the Explorer runs synchronous maintenance.
func (d *Dispatcher) Quiesce(ctx context.Context) error { return d.ex.Quiesce(ctx) }

// Submit enqueues one query with no caller context; its result is delivered
// on out. Without admission control Submit blocks when all workers are busy
// and the (bounded) queue is full — the backpressure that keeps a heavy
// caller from buffering an unbounded backlog. With MaxInFlight set it
// fast-fails with ErrOverloaded instead. The out channel must have capacity
// for every result submitted to it, or be drained concurrently; otherwise
// workers block delivering. Submitting to a closed dispatcher returns
// ErrClosed (racing a concurrent Close is safe — never a panic).
func (d *Dispatcher) Submit(index int, q Query, out chan<- BatchResult) error {
	return d.SubmitCtx(context.Background(), index, q, out)
}

// SubmitCtx is Submit with a caller context. The context governs the whole
// lifetime of the query: a submission whose context is already done is
// refused immediately, cancellation while waiting for an admission slot
// abandons the wait, and the context travels with the job so the worker
// aborts the query the moment it expires — whether that happens in the
// queue or mid-execution. When AdmissionConfig.Deadline is set and ctx
// carries no deadline of its own, the default deadline is attached here, at
// submit time, so queue wait counts against it.
func (d *Dispatcher) SubmitCtx(ctx context.Context, index int, q Query, out chan<- BatchResult) error {
	if ctx == nil {
		ctx = context.Background()
	}
	// A dead context is refused before admission; it does not enter the
	// ledger at all (Canceled counts only admitted queries, so that
	// Admitted == Completed + Canceled holds after Close).
	if err := simdisk.CheckCtx(ctx); err != nil {
		return err
	}
	if d.slots != nil {
		select {
		case d.slots <- struct{}{}:
		default:
			if d.cfg.QueueWait <= 0 {
				d.rejected.Add(1)
				return ErrOverloaded
			}
			timer := time.NewTimer(d.cfg.QueueWait)
			select {
			case d.slots <- struct{}{}:
				timer.Stop()
			case <-timer.C:
				d.rejected.Add(1)
				return ErrOverloaded
			case <-ctx.Done():
				// Canceled while waiting for a slot: never admitted, so it
				// counts in no ledger bucket (see the dead-context refusal
				// above).
				timer.Stop()
				return simdisk.Canceled(ctx.Err())
			}
		}
	}
	job := dispatchJob{index: index, query: q, ctx: ctx, submitted: time.Now(), out: out}
	if d.cfg.Deadline > 0 {
		if _, has := ctx.Deadline(); !has {
			job.ctx, job.cancel = context.WithTimeout(ctx, d.cfg.Deadline)
		}
	}
	if job.ctx.Done() != nil {
		// The job can expire in the queue; arm the sweeper's claim state.
		job.sweep = new(sweepState)
	}
	d.sendMu.RLock()
	if d.closed {
		d.sendMu.RUnlock()
		d.abandon(job)
		return ErrClosed
	}
	staged := false
	if d.batchStop != nil {
		// Micro-batching: stage the job for the batcher to flush grouped
		// with its neighbours. Staging never blocks, so it can never stall
		// a concurrent Close from here — and it is bounded: admission caps
		// it when configured, batchStageCap otherwise. Overflow falls
		// through to the direct dispatch path below, whose blocking send
		// is the documented backpressure.
		d.batchMu.Lock()
		if d.slots != nil || len(d.batchBuf) < batchStageCap {
			d.batchBuf = append(d.batchBuf, job)
			staged = true
		}
		d.batchMu.Unlock()
		if staged {
			d.batched.Add(1)
		}
	}
	switch {
	case staged:
		// Already on its way to the pool via the batcher's next flush.
	case d.slots != nil:
		// With admission on, the queue is sized for MaxInFlight live jobs —
		// but swept jobs keep their queue entries until a worker discards
		// them, so under a backlog of zombies the send could block while
		// holding sendMu (stalling a concurrent Close). It must not: shed
		// the submission like any other overload instead. Workers drain
		// zombies without doing work, so the condition clears in
		// microseconds.
		select {
		case d.jobs <- job:
		default:
			d.sendMu.RUnlock()
			d.abandon(job)
			d.rejected.Add(1)
			return ErrOverloaded
		}
	default:
		// Without admission the send may block — that is the documented
		// blocking backpressure — but cancellation still abandons the wait
		// (the channel cannot be closed underneath the select: Close needs
		// sendMu exclusively first). Watching job.ctx, not ctx, means a
		// dispatcher-attached default deadline bounds the queue wait too;
		// the two are identical when no deadline was attached.
		select {
		case d.jobs <- job:
		case <-job.ctx.Done():
			d.sendMu.RUnlock()
			d.abandon(job)
			return simdisk.Canceled(job.ctx.Err())
		}
	}
	d.admitted.Add(1)
	if s := job.sweep; s != nil {
		// No goroutine waits on a queued job: the context runs the sweeper
		// if it ends first, and whoever pops the job unregisters it.
		s.job = job
		d.sweepWg.Add(1)
		s.stop = context.AfterFunc(job.ctx, func() { d.sweep(s) })
		s.armed.Store(true)
		if s.done.Load() {
			d.retire(s) // popped before stop was published
		}
	}
	d.sendMu.RUnlock()
	return nil
}

// abandon releases what SubmitCtx took for a job it is not going to queue:
// the attached deadline's timer and the in-flight slot.
func (d *Dispatcher) abandon(job dispatchJob) {
	if job.cancel != nil {
		job.cancel()
	}
	d.releaseSlot()
}

// retire unregisters a claimed job's sweeper callback. A callback stopped
// before it started never runs, so its count is released here; one already
// running loses the claim and releases its own.
func (d *Dispatcher) retire(s *sweepState) {
	if s.stop() {
		d.sweepWg.Done()
	}
}

// batcher drains the micro-batching stage every BatchWindow, releasing the
// staged jobs to the worker pool grouped by dataset combination and query
// locality — so workers executing concurrently hold overlapping work the
// scan sharing can coalesce. On stop it flushes whatever is staged
// before signalling done, which is why Close stops the batcher before
// closing the jobs channel. The timer is re-armed after each flush, not a
// ticker: a flush that stalled on a full queue is still followed by a whole
// window of staging.
func (d *Dispatcher) batcher() {
	defer close(d.batchDone)
	timer := time.NewTimer(d.cfg.BatchWindow)
	defer timer.Stop()
	for {
		select {
		case <-timer.C:
			d.flushBatch()
			timer.Reset(d.cfg.BatchWindow)
		case <-d.batchStop:
			d.flushBatch()
			return
		}
	}
}

// batchGroupKey orders staged jobs so that queries over the same dataset
// combination — and within a combination, the same coarse spatial cell —
// dispatch adjacently. The cell grid is 8^3 over the Explorer's bounds:
// coarse enough that a hot region's queries group, fine enough that distant
// queries do not.
func (d *Dispatcher) batchGroupKey(q Query) string {
	b := d.ex.opts.Bounds
	c := q.Range.Center()
	sz := b.Size()
	cell := func(lo, span, v float64) int {
		if span <= 0 {
			return 0
		}
		i := int(8 * (v - lo) / span)
		if i < 0 {
			i = 0
		}
		if i > 7 {
			i = 7
		}
		return i
	}
	dss := append([]DatasetID(nil), q.Datasets...)
	sort.Slice(dss, func(i, j int) bool { return dss[i] < dss[j] })
	var sb strings.Builder
	for _, ds := range dss {
		fmt.Fprintf(&sb, "%d,", ds)
	}
	fmt.Fprintf(&sb, "|%d.%d.%d",
		cell(b.Min.X, sz.X, c.X), cell(b.Min.Y, sz.Y, c.Y), cell(b.Min.Z, sz.Z, c.Z))
	return sb.String()
}

// flushBatch groups and forwards every staged job. The sends may block on a
// full jobs queue — the batcher holds no locks here, and the workers drain
// the queue, so the stall is bounded by pool throughput.
func (d *Dispatcher) flushBatch() {
	d.batchMu.Lock()
	staged := d.batchBuf
	d.batchBuf = nil
	d.batchMu.Unlock()
	if len(staged) == 0 {
		return
	}
	keys := make([]string, len(staged))
	order := make([]int, len(staged))
	for i := range staged {
		keys[i] = d.batchGroupKey(staged[i].query)
		order[i] = i
	}
	// Stable by group key: same-combination, same-cell queries become
	// adjacent while arrival order within a group is preserved.
	sort.SliceStable(order, func(a, b int) bool { return keys[order[a]] < keys[order[b]] })
	groups := int64(1)
	for i := 1; i < len(order); i++ {
		if keys[order[i]] != keys[order[i-1]] {
			groups++
		}
	}
	d.batches.Add(groups)
	for _, i := range order {
		d.jobs <- staged[i]
	}
}

// sweep runs when a queued job's context ends (context.AfterFunc). If no
// worker has claimed the job yet, the sweeper delivers the cancellation
// result and releases the in-flight slot immediately — the submitter gets
// its answer and its capacity back at expiry time instead of after the
// residual queue wait — and the worker that eventually pops the job
// discards it. Exactly one of worker and sweeper delivers (the done flag
// arbitrates). The discarded job still occupies a queue entry until that
// pop, which is why the admission-path enqueue in SubmitCtx is
// non-blocking: a zombie backlog sheds new submissions instead of blocking
// them.
func (d *Dispatcher) sweep(s *sweepState) {
	defer d.sweepWg.Done()
	if !s.done.CompareAndSwap(false, true) {
		return // a worker claimed the job first
	}
	job := s.job
	err := simdisk.Canceled(job.ctx.Err())
	if job.cancel != nil {
		job.cancel()
	}
	d.releaseSlot()
	d.canceled.Add(1)
	d.swept.Add(1)
	job.out <- BatchResult{
		Index:  job.index,
		Query:  job.query,
		Worker: SweptWorker,
		Wait:   time.Since(job.submitted),
		Err:    err,
	}
}

// releaseSlot frees one in-flight slot (no-op without admission control).
func (d *Dispatcher) releaseSlot() {
	if d.slots != nil {
		<-d.slots
	}
}

// Close stops accepting work and blocks until every submitted query has
// finished — including any sweeper deliveries, so once Close returns the
// caller may safely close its result channel. Safe to call more than once
// and concurrently with Submit.
func (d *Dispatcher) Close() {
	d.closing.Do(func() {
		d.sendMu.Lock()
		d.closed = true
		d.sendMu.Unlock()
		// Stop the micro-batcher first: it flushes the stage into the jobs
		// channel on its way out, and only then is the channel safe to
		// close (no Submit can stage anymore — the closed flag is set).
		if d.batchStop != nil {
			close(d.batchStop)
			<-d.batchDone
		}
		close(d.jobs)
	})
	d.wg.Wait()
	// Every job has been popped by now (claimed or discarded), so the only
	// callbacks left are sweeper deliveries in progress; wait so none
	// outlives Close.
	d.sweepWg.Wait()
}

// WorkerStats returns per-worker activity. Call after Close; during a run
// the slice is being written by the workers.
func (d *Dispatcher) WorkerStats() []WorkerStats {
	out := make([]WorkerStats, len(d.stats))
	copy(out, d.stats)
	return out
}

// worker serves jobs until the queue closes. Each worker owns its stats
// slot, so no locking is needed on the hot path. A job the sweeper already
// returned is discarded on pop; a job whose context died in the queue but
// which the worker claimed first is skipped, not executed — delivered
// straight back with the cancellation error. Either way no worker time is
// spent on dead-on-arrival queries and the queue drains at full speed
// during a cancellation storm.
func (d *Dispatcher) worker(w int) {
	defer d.wg.Done()
	st := &d.stats[w]
	st.Worker = w
	for job := range d.jobs {
		if s := job.sweep; s != nil {
			if !s.done.CompareAndSwap(false, true) {
				continue // the sweeper already returned this job
			}
			if s.armed.Load() {
				d.retire(s)
			}
		}
		wait := time.Since(job.submitted)
		var objs []Object
		err := simdisk.CheckCtx(job.ctx)
		t0 := time.Now()
		if err == nil {
			objs, err = d.ex.QueryCtx(job.ctx, job.query.Range, job.query.Datasets)
		}
		wall := time.Since(t0)
		if job.cancel != nil {
			job.cancel()
		}
		d.releaseSlot()
		st.Queries++
		st.Busy += wall
		switch {
		case err == nil:
			d.completed.Add(1)
		case IsCanceled(err):
			st.Canceled++
			d.canceled.Add(1)
		default:
			d.failed.Add(1)
		}
		job.out <- BatchResult{
			Index:   job.index,
			Query:   job.query,
			Objects: objs,
			Worker:  w,
			Wait:    wait,
			Wall:    wall,
			Err:     err,
		}
	}
}

// QueryBatch executes all queries through a bounded worker pool of the
// given parallelism and returns the results in input order. Each result
// carries its own error; the returned error is the first per-query error in
// input order (the remaining queries still run). workers <= 0 defaults to
// GOMAXPROCS; workers == 1 degenerates to serial execution through one
// worker.
func (e *Explorer) QueryBatch(queries []Query, workers int) ([]BatchResult, error) {
	return e.QueryBatchCtx(context.Background(), queries, workers)
}

// QueryBatchCtx is QueryBatch under one shared context: canceling it aborts
// every query still queued or running, each of which reports its own
// cancellation error in its slot (IsCanceled distinguishes them from real
// failures). Queries that completed before the cancellation keep their full
// results — a batch is not transactional.
func (e *Explorer) QueryBatchCtx(ctx context.Context, queries []Query, workers int) ([]BatchResult, error) {
	d := NewDispatcher(e, workers)
	// out is buffered for every result so workers never block on delivery
	// and the submit loop below cannot deadlock against them.
	out := make(chan BatchResult, len(queries))
	results := make([]BatchResult, len(queries))
	for i, q := range queries {
		// The dispatcher is private to this call and has no admission cap,
		// so the only submit failure is a context already done — which gets
		// recorded in place of a delivered result.
		if err := d.SubmitCtx(ctx, i, q, out); err != nil {
			results[i] = BatchResult{Index: i, Query: q, Err: err}
		}
	}
	d.Close()
	close(out)
	for r := range out {
		results[r.Index] = r
	}
	var firstErr error
	for i := range results {
		if results[i].Err != nil {
			firstErr = results[i].Err
			break
		}
	}
	return results, firstErr
}

// QueryConcurrent streams queries from a channel through a bounded worker
// pool, delivering results on the returned channel as they complete (not in
// input order — Index carries the arrival order). The result channel closes
// once the input channel is closed and drained.
//
// Production and consumption must run concurrently: the pipeline's buffers
// hold only a few in-flight queries (jobs 2x workers, results 1x), so a
// caller that pushes every query into the input channel before reading any
// results deadlocks once the buffers fill — feed the input from its own
// goroutine (or select over both channels), as in the package tests. For a
// fixed slice of queries, QueryBatch handles this for you. Likewise the
// result channel must be consumed to completion: abandoning it while
// queries are in flight blocks the pool's workers forever — to bail out
// early, cancel the context passed to QueryConcurrentCtx and keep draining.
// workers <= 0 defaults to GOMAXPROCS.
func (e *Explorer) QueryConcurrent(queries <-chan Query, workers int) <-chan BatchResult {
	return e.QueryConcurrentCtx(context.Background(), queries, workers)
}

// QueryConcurrentCtx is QueryConcurrent under one shared context; canceling
// it turns the remaining stream into fast cancellation results (the result
// channel still closes only when the input channel does).
func (e *Explorer) QueryConcurrentCtx(ctx context.Context, queries <-chan Query, workers int) <-chan BatchResult {
	d := NewDispatcher(e, workers)
	out := make(chan BatchResult, d.Workers())
	go func() {
		i := 0
		for q := range queries {
			// Private dispatcher, never closed here; a dead context is
			// reported through the result stream like any other outcome.
			if err := d.SubmitCtx(ctx, i, q, out); err != nil {
				out <- BatchResult{Index: i, Query: q, Err: err}
			}
			i++
		}
		d.Close()
		close(out)
	}()
	return out
}
