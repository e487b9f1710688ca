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

// ErrClosed is returned by Submit/SubmitCtx after Close. Submitting to a
// closed dispatcher is always a clean error, never a panic, even when racing
// a concurrent Close.
var ErrClosed = errors.New("odyssey: dispatcher closed")

// IsCanceled reports whether err is a cancellation outcome: a wrapped
// ErrCanceled from the storage stack, or a bare context error.
// Closed-dispatcher errors are not cancellations.
func IsCanceled(err error) bool {
	return err != nil && (errors.Is(err, ErrCanceled) ||
		errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded))
}

// BatchResult is the outcome of one query executed by the worker pool.
type BatchResult struct {
	// Index identifies the query: its position in the QueryBatch slice, or
	// the index its submitter gave Dispatcher.Submit.
	Index int
	// Query is the executed query.
	Query Query
	// Objects is the result set (nil when Err is set).
	Objects []Object
	// Worker is the pool worker that popped the query.
	Worker int
	// Wait is the queue wait: submit to worker pickup. A query canceled while
	// still queued is returned with its real Wait and a ~0 Wall.
	Wait time.Duration
	// Wall is the wall-clock time the query took on its worker.
	Wall time.Duration
	// Err is the query's error, if any. Cancellation errors satisfy
	// IsCanceled (and errors.Is against ErrCanceled, context.Canceled or
	// context.DeadlineExceeded).
	Err error
}

// AdmissionConfig configures how the dispatcher hands submissions to its
// pool. The zero value dispatches every submission immediately, with the
// bounded job queue providing blocking backpressure.
type AdmissionConfig struct {
	// BatchWindow, when positive, turns on micro-batching: submitted queries
	// are staged for up to this long and released to the worker pool
	// grouped by dataset combination and query locality (a coarse spatial
	// cell of the query center), so concurrent workers pull overlapping
	// work scan sharing (Options.CacheResults) can coalesce into
	// single-flight reads. The window adds up to ~2x its length to queue
	// wait (it buys coalesced I/O with a little latency); 0 (the default)
	// dispatches every submission immediately. Staging never blocks, and
	// the stage holds at most batchStageCap jobs — beyond that, submissions
	// bypass the stage and take the direct dispatch path with its ordinary
	// blocking backpressure (they lose grouping, not safety).
	BatchWindow time.Duration
}

// batchStageCap bounds the micro-batcher's stage: a flush stalled on a
// saturated pool must shed overflow submissions to the blocking direct path
// instead of buffering an unbounded backlog.
const batchStageCap = 4096

// AdmissionStats counts the dispatcher's submissions and their outcomes.
type AdmissionStats struct {
	// Admitted is how many queries were enqueued (or staged).
	Admitted int64
	// Rejected is always zero: the dispatcher sheds nothing. It is kept
	// because the repository benchmark (benchmark/workloads.go) names it.
	Rejected int64
	// Canceled is how many admitted queries ended in a cancellation error
	// (their context ended in the queue or mid-execution). Submissions
	// refused before admission — a context already dead at Submit, or
	// ended while the submit waited on a full queue — appear in no bucket,
	// so Admitted == Completed + Canceled + Failed once the dispatcher is
	// closed.
	Canceled int64
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

// Dispatcher is a bounded worker pool serving queries against one Explorer.
// It is the concurrency front-end the batch APIs are built on: submit jobs
// from any goroutine, close the dispatcher to drain, then read its
// AdmissionStats. A query is bounded one way, by its context: its deadline or
// cancellation abandons a blocked submit, skips the query if it is still
// queued, and aborts it mid-execution. A Dispatcher must not be reused
// after Close.
type Dispatcher struct {
	ex   *Explorer
	cfg  AdmissionConfig
	jobs chan dispatchJob
	wg   sync.WaitGroup

	admitted  atomic.Int64
	canceled  atomic.Int64
	completed atomic.Int64
	failed    atomic.Int64

	// sendMu orders Submit (shared) against Close (exclusive) so a racing
	// Submit can never send on the closed jobs channel.
	sendMu  sync.RWMutex
	closed  bool
	closing sync.Once

	// Micro-batching (AdmissionConfig.BatchWindow): submitted jobs are
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
	submitted time.Time
	out       chan<- BatchResult
}

// NewDispatcher starts a pool of the given number of workers over the
// Explorer, dispatching every submission immediately. workers <= 0 defaults
// to GOMAXPROCS.
func NewDispatcher(ex *Explorer, workers int) *Dispatcher {
	return NewDispatcherWithAdmission(ex, workers, AdmissionConfig{})
}

// NewDispatcherWithAdmission starts a pool with the given dispatch policy.
// The job queue holds twice the worker count.
func NewDispatcherWithAdmission(ex *Explorer, workers int, cfg AdmissionConfig) *Dispatcher {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	d := &Dispatcher{
		ex:   ex,
		cfg:  cfg,
		jobs: make(chan dispatchJob, 2*workers),
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

// AdmissionStats returns a snapshot of the admission counters. Under
// concurrent load the snapshot is a consistent per-counter sum, not an
// instantaneous cross-counter cut; after Close it is exact.
func (d *Dispatcher) AdmissionStats() AdmissionStats {
	return AdmissionStats{
		Admitted:       d.admitted.Load(),
		Canceled:       d.canceled.Load(),
		Completed:      d.completed.Load(),
		Failed:         d.failed.Load(),
		Batches:        d.batches.Load(),
		BatchedQueries: d.batched.Load(),
	}
}

// Submit enqueues one query with no caller context; its result is delivered
// on out. Submit blocks when all workers are busy and the (bounded) queue is
// full — the backpressure that keeps a heavy caller from buffering an
// unbounded backlog. The out channel must have capacity for every result
// submitted to it, or be drained concurrently; otherwise workers block
// delivering. Submitting to a closed dispatcher returns ErrClosed (racing a
// concurrent Close is safe — never a panic).
func (d *Dispatcher) Submit(index int, q Query, out chan<- BatchResult) error {
	return d.SubmitCtx(context.Background(), index, q, out)
}

// SubmitCtx is Submit with a caller context. The context governs the whole
// lifetime of the query: a submission whose context is already done is
// refused immediately, one whose context ends while it waits on a full
// queue abandons the wait, and the context travels with the job, so a
// worker that pops a dead job delivers it canceled without running it and
// a running query aborts the moment its context ends.
func (d *Dispatcher) SubmitCtx(ctx context.Context, index int, q Query, out chan<- BatchResult) error {
	if ctx == nil {
		ctx = context.Background()
	}
	// A dead context is refused before admission; it does not enter the
	// ledger at all (Canceled counts only admitted queries, so that
	// Admitted == Completed + Canceled + Failed holds after Close).
	if err := simdisk.CheckCtx(ctx); err != nil {
		return err
	}
	job := dispatchJob{index: index, query: q, ctx: ctx, submitted: time.Now(), out: out}
	d.sendMu.RLock()
	defer d.sendMu.RUnlock()
	if d.closed {
		return ErrClosed
	}
	if !d.stage(job) {
		// The send may block — that is the documented backpressure — but
		// the context still abandons the wait (the channel cannot be closed
		// underneath the select: Close needs sendMu exclusively first).
		select {
		case d.jobs <- job:
		case <-ctx.Done():
			return simdisk.Canceled(ctx.Err())
		}
	}
	d.admitted.Add(1)
	return nil
}

// stage puts a job on the micro-batcher's stage for the next flush and
// reports whether it did: never with batching off, and not once the stage
// holds batchStageCap jobs. Staging never blocks, so it can never stall a
// concurrent Close.
func (d *Dispatcher) stage(job dispatchJob) bool {
	if d.batchStop == nil {
		return false
	}
	d.batchMu.Lock()
	defer d.batchMu.Unlock()
	if len(d.batchBuf) >= batchStageCap {
		return false
	}
	d.batchBuf = append(d.batchBuf, job)
	d.batched.Add(1)
	return true
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

// Close stops accepting work and blocks until every submitted query has
// been delivered, so once Close returns the caller may safely close its
// result channel. Safe to call more than once and concurrently with Submit.
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
}

// worker serves jobs until the queue closes. A job whose context died
// in the queue is skipped, not executed — delivered straight back with the
// cancellation error — so no worker time is spent on dead-on-arrival
// queries and the queue drains at full speed during a cancellation storm.
func (d *Dispatcher) worker(w int) {
	defer d.wg.Done()
	for job := range d.jobs {
		wait := time.Since(job.submitted)
		var objs []Object
		err := simdisk.CheckCtx(job.ctx)
		t0 := time.Now()
		if err == nil {
			objs, err = d.ex.QueryCtx(job.ctx, job.query.Range, job.query.Datasets)
		}
		wall := time.Since(t0)
		switch {
		case err == nil:
			d.completed.Add(1)
		case IsCanceled(err):
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
		// The dispatcher is private to this call, so the only submit
		// failure is the context ending before the job is queued — which
		// gets recorded in place of a delivered result.
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
