package odyssey

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"spaceodyssey/internal/core"
	"spaceodyssey/internal/geom"
	"spaceodyssey/internal/rawfile"
	"spaceodyssey/internal/simdisk"
)

// Options configures an Explorer: its simulated storage and the serving
// modes of its engine. The engine runs the paper's defaults, with no setting
// to change them here: refinement threshold rt = 4, ppl = 64 partitions per
// level, merge threshold mt = 2 for combinations of |C| >= 3 datasets,
// same-level merges with no disk-space budget, and, with AsyncMaintenance,
// two background maintenance workers. The zero value is that engine on the
// SAS-disk cost model, a 1024-page buffer cache and the unit exploration
// volume, every serving mode off.
type Options struct {
	// Bounds is the shared exploration volume all datasets live in.
	// Defaults to the unit box.
	Bounds Box
	// Cost is the simulated disk's cost model; defaults to the SAS model.
	Cost CostModel
	// CachePages is the buffer-cache capacity in 4 KB pages (default 1024).
	CachePages int
	// DropCachesPerQuery clears the buffer cache before every query,
	// matching the paper's measurement methodology (default false for API
	// users; the benchmark harness always drops).
	DropCachesPerQuery bool
	// RealTimeScale, when positive, makes the simulated disk emulate its
	// charged costs in wall-clock time (each charge sleeps scale times the
	// simulated duration, outside all locks). Concurrent queries then
	// genuinely overlap their simulated I/O waits — the serving behaviour
	// QueryBatch and the Dispatcher exist to exploit. 0 (default) keeps the
	// disk purely virtual and instant.
	RealTimeScale float64
	// Devices is the number of simulated member devices files are placed
	// on (default 1 — a single device, the paper's baseline setup; the
	// paper's own evaluation hardware had two SAS disks). With Devices > 1
	// each file is placed by what it holds — a dataset's raw and tree files
	// on one member, merge files dealt across members in turn — and the
	// simulated clock reports the critical path across devices.
	Devices int
	// Channels is the number of independent I/O channels (platter heads,
	// with per-channel seek detection) per device; default 1, the original
	// single-head cost model. Cache misses on files of different channels
	// overlap instead of serializing on one seek queue.
	Channels int
	// AsyncMaintenance moves layout maintenance (partition refinement and
	// the merge step) off the query path: queries answer immediately from
	// the current layout and enqueue coalescing background tasks that a
	// bounded scheduler drains concurrently across datasets. The tasks run
	// the same refinement and merge step a synchronous query would, the
	// merge's copy stage under shared locks where the merge policy allows.
	// Use Quiesce to wait for the layout to converge, and Close to shut the
	// pipeline down. Default off — maintenance runs inline on the query that
	// triggered it, as in the paper.
	AsyncMaintenance bool
	// ShareScans is ignored, and kept only so that code which sets it still
	// compiles: scan sharing runs exactly when CacheResults is on.
	//
	// Deprecated: set CacheResults.
	ShareScans bool
	// CacheResults turns on the result cache, and with it scan sharing: a
	// query attaches to another query's in-flight read of the same
	// (dataset, cell) — a tree partition or a merge segment — within a
	// layout epoch instead of reading it again (see SharingStats), and
	// completed partition scans are retained keyed on (dataset, cell) and
	// answer later queries of the same cell with zero device reads. A cell's
	// content does not depend on the layout, so an entry survives layout
	// changes; a refinement drops the cells it split and their ancestors,
	// and a merge regroups the cached cells it published with a child
	// directory, so what is cached stays as fine and as indexed as the
	// layout. Refinements and merge copies take the cells the cache holds
	// instead of reading them from the device, and write the same pages.
	// Query results are byte-identical to an uncached run. See CacheStats
	// for the ledger.
	// Default off: every query pays its own reads, and behaviour is
	// bit-for-bit the original model. (A cold dataset's level-0 first-touch
	// build is single-flight per dataset either way.)
	CacheResults bool
	// CacheCapacity bounds the result cache in total cached objects
	// (<= 0 defaults to core.DefaultCacheCapacity, 2Mi objects). When
	// full, the coldest cached scans — fewest hits, oldest first — are
	// evicted. Only meaningful with CacheResults.
	CacheCapacity int64
	// AdaptiveCache is ignored, and kept only so that code which sets it
	// still compiles: the result cache's budget is CacheCapacity.
	//
	// Deprecated: set CacheCapacity, or leave it at the default.
	AdaptiveCache bool
	// HeatHalfLife is ignored, and kept only so that code which sets it
	// still compiles: the result cache evicts the entry with the fewest hits,
	// oldest first, and background maintenance runs the most-demanded region
	// first, ties in arrival order.
	//
	// Deprecated: leave it unset.
	HeatHalfLife int
}

// engineConfig is the engine configuration of Options: the paper defaults
// with the serving modes Options switches on. ShareScans, AdaptiveCache and
// HeatHalfLife are not read.
func (o Options) engineConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.AsyncMaintenance = o.AsyncMaintenance
	cfg.CacheResults = o.CacheResults
	cfg.CacheCapacity = o.CacheCapacity
	return cfg
}

// Explorer is the top-level handle for exploring spatial datasets with
// Space Odyssey. It owns a simulated disk, the raw dataset files, and the
// adaptive engine.
//
// An Explorer is safe for concurrent use: queries may run in parallel with
// each other (see QueryBatch and the Dispatcher for pooled execution) and
// with AddDataset. Read-only queries proceed concurrently; queries that
// trigger indexing, refinement or merging exclude other users of only the
// affected datasets. AddDataset itself briefly excludes all queries — it
// resets the simulated clock (registered data pre-exists the session), and
// that reset must not land in the middle of an in-flight query's timing.
type Explorer struct {
	opts Options
	// dev is the storage's control handle; every layer below the Explorer
	// gets the data-path simdisk.Storage it embeds.
	dev    simdisk.Control
	engine *core.Odyssey

	// mu guards raws, and orders queries (shared) against AddDataset
	// (exclusive) so the device clock/stat resets in AddDataset never race
	// in-flight timing measurements. Close takes it exclusively too, so a
	// closed Explorer has no query in flight.
	mu   sync.RWMutex
	raws map[DatasetID]*rawfile.Raw

	// closed is set by Close; checked on the query and dataset paths so
	// every post-Close call fails fast with ErrClosed. closeOnce runs the
	// shutdown exactly once; closeDone lets concurrent Close callers wait
	// for it to actually finish; closeErr (written before closeDone closes)
	// is the device-close outcome every caller returns.
	closed    atomic.Bool
	closeOnce sync.Once
	closeDone chan struct{}
	closeErr  error
}

// NewExplorer creates an Explorer with the given options.
func NewExplorer(opts Options) (*Explorer, error) {
	return newExplorer(opts, opts.engineConfig())
}

// newExplorer creates an Explorer on opts' storage whose engine runs cfg.
// Options' serving modes are read only through cfg.
func newExplorer(opts Options, cfg core.Config) (*Explorer, error) {
	if opts.Bounds.Volume() == 0 {
		opts.Bounds = geom.UnitBox()
	}
	zero := CostModel{}
	if opts.Cost == zero {
		opts.Cost = simdisk.DefaultCostModel()
	}
	if err := opts.Cost.Validate(); err != nil {
		return nil, err
	}
	if opts.CachePages == 0 {
		opts.CachePages = 1024
	}
	dev := simdisk.NewStorage(opts.Cost, opts.CachePages, opts.Devices, opts.Channels, nil)
	if opts.RealTimeScale > 0 {
		dev.SetRealTimeScale(opts.RealTimeScale)
	}
	eng, err := core.New(dev, nil, opts.Bounds, cfg)
	if err != nil {
		return nil, err
	}
	return &Explorer{
		opts:      opts,
		dev:       dev,
		engine:    eng,
		raws:      make(map[DatasetID]*rawfile.Raw),
		closeDone: make(chan struct{}),
	}, nil
}

// AddDataset registers a dataset: its objects are written to a raw file on
// the simulated disk (modelling data that already exists, so the write does
// not count toward exploration time). Every object must carry the given
// dataset id. The dataset is indexed lazily as queries touch it.
func (e *Explorer) AddDataset(id DatasetID, objs []Object) error {
	if e.closed.Load() {
		return ErrClosed
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed.Load() {
		return ErrClosed
	}
	if _, dup := e.raws[id]; dup {
		return fmt.Errorf("odyssey: dataset %d already added", id)
	}
	for _, o := range objs {
		if o.Dataset != id {
			return fmt.Errorf("odyssey: object %d tagged with dataset %d, expected %d",
				o.ID, o.Dataset, id)
		}
	}
	raw, err := rawfile.Write(e.dev, fmt.Sprintf("ds%d.raw", id), id, objs)
	if err != nil {
		return err
	}
	if err := e.engine.AddRaw(raw); err != nil {
		// The engine refused the dataset: take its raw file back off the
		// device, or it would stay there unreachable. Best effort — the
		// engine's error is the one the caller needs.
		_ = raw.Delete()
		return err
	}
	e.raws[id] = raw
	// The data pre-exists the exploration session: acquiring it is not
	// query-to-insight time. Holding mu exclusively keeps queries out, but
	// background maintenance tasks run on their own locks — drain them
	// first so the clock reset can never land inside a task's timing
	// interval (a reset mid-task would charge negative phase durations).
	if err := e.engine.Quiesce(context.Background()); err != nil {
		return err
	}
	e.dev.ResetClock()
	e.dev.ResetStats()
	e.dev.DropCaches()
	return nil
}

// NumDatasets returns how many datasets have been added.
func (e *Explorer) NumDatasets() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return len(e.raws)
}

// Query returns all objects intersecting q in the requested datasets,
// adapting the physical layout as a side effect (incremental indexing,
// refinement, merging).
func (e *Explorer) Query(q Box, datasets []DatasetID) ([]Object, error) {
	objs, _, err := e.QueryTimedCtx(context.Background(), q, datasets)
	return objs, err
}

// QueryCtx is Query with cancellation and deadline support. When ctx is
// canceled or its deadline passes, the query aborts at the next level step
// or page boundary and returns an error wrapping both ErrCanceled and the
// context's own error (so errors.Is works with either), never a partial
// result set. Simulated I/O performed before the abort stays charged to the
// shared clock — that work really happened — but nothing past the abort
// point is charged, and on a real-time emulated device the in-flight wait
// is cut short. A query that finishes its read phase just before the
// deadline returns its complete result; only layout housekeeping is
// skipped.
func (e *Explorer) QueryCtx(ctx context.Context, q Box, datasets []DatasetID) ([]Object, error) {
	objs, _, err := e.QueryTimedCtx(ctx, q, datasets)
	return objs, err
}

// QueryTimed is Query plus the simulated latency of this query alone. When
// Options.DropCachesPerQuery is set, the buffer cache is cleared first,
// like the paper's cold-cache methodology. The latency is an exact
// per-query charge attribution on every topology: the query's context
// carries an OpScope the storage layer charges directly — platter service
// time, cache-hit time, and the arrival-gated queueing delay the query's
// operations spent waiting behind earlier arrivals on their channels — so
// concurrent queries never inflate (or shadow) each other's durations, and
// the per-query charges of concurrent queries sum exactly to the device
// busy time. On a serial single-channel workload the duration is
// bit-for-bit the shared-clock delta of the original single-head model.
func (e *Explorer) QueryTimed(q Box, datasets []DatasetID) ([]Object, time.Duration, error) {
	return e.QueryTimedCtx(context.Background(), q, datasets)
}

// QueryTimedCtx is QueryTimed with cancellation (see QueryCtx). On abort
// the returned duration still reports the simulated time this query charged
// before giving up — canceled queries are not free, they cost exactly the
// I/O they performed.
func (e *Explorer) QueryTimedCtx(ctx context.Context, q Box, datasets []DatasetID) ([]Object, time.Duration, error) {
	if len(datasets) == 0 {
		return nil, 0, fmt.Errorf("odyssey: query names no datasets")
	}
	if e.closed.Load() {
		return nil, 0, ErrClosed
	}
	if err := simdisk.CheckCtx(ctx); err != nil {
		return nil, 0, err
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	// Re-check under the lock: Close marks closed and then takes mu
	// exclusively, so a query that got its read lock either started before
	// Close (and Close waits for it) or observes the flag here.
	if e.closed.Load() {
		return nil, 0, ErrClosed
	}
	if e.opts.DropCachesPerQuery {
		e.dev.DropCaches()
	}
	// The query runs under an OpScope: the storage layer charges every
	// device operation the query performs — including queueing delay behind
	// concurrent queries' operations — to it, making the returned duration an
	// exact per-query attribution on any topology. A scope already on the
	// context is reused, so a caller that attached one reads the query's
	// charge from it.
	scope := simdisk.ScopeFrom(ctx)
	if scope == nil {
		ctx, scope = simdisk.WithOpScope(ctx, simdisk.PriForeground)
	}
	start := scope.Total()
	objs, err := e.engine.QueryCtx(ctx, q, datasets)
	return objs, scope.Total() - start, err
}

// Clock returns total simulated time spent since the session started (or
// the last ResetClock). On a multi-channel or multi-device topology this is
// the critical path — the busiest channel of the busiest device plus shared
// time — i.e. the time the workload needs when every channel overlaps
// perfectly; with the default 1x1 topology it is the exact serial sum.
func (e *Explorer) Clock() time.Duration { return e.dev.Clock() }

// ResetClock zeroes the simulated clock across every device and channel.
// Measurement harnesses call it after converging the layout so a measured
// phase starts from zero — on a multi-channel topology, clock *deltas*
// across an imbalanced warm-up phase under-report (the busiest channel
// shadows later work on the others), so measure from a reset, not a delta.
// Must not be called concurrently with in-flight queries whose timings
// matter.
func (e *Explorer) ResetClock() { e.dev.ResetClock() }

// SetRealTimeScale changes the real-time emulation scale at runtime (see
// Options.RealTimeScale); 0 turns emulation off. Benchmarks use it to
// converge an Explorer instantly and then measure serving wall time.
func (e *Explorer) SetRealTimeScale(scale float64) { e.dev.SetRealTimeScale(scale) }

// DiskStats returns the simulated device counters, summed across all
// member devices of the storage topology.
func (e *Explorer) DiskStats() DiskStats { return e.dev.Stats() }

// ResetStats zeroes the simulated device counters across every member
// device and channel, so a measurement harness can count a phase from zero
// (the clock is reset separately; see ResetClock). Must not be called
// concurrently with in-flight queries whose statistics matter.
func (e *Explorer) ResetStats() { e.dev.ResetStats() }

// ChannelStats returns per-device, per-channel counters: busy platter time
// and the seek/sequential split of each channel, the utilization breakdown
// the serving benchmarks report.
func (e *Explorer) ChannelStats() [][]ChannelStats { return e.dev.DeviceChannelStats() }

// Metrics returns the engine's internal counters (refinements, merges,
// merge-file serves, ...).
func (e *Explorer) Metrics() Metrics { return e.engine.Metrics() }

// DatasetInfo describes the indexing state of one dataset.
type DatasetInfo struct {
	ID        DatasetID
	Objects   int
	Indexed   bool // level-0 partitioning has run
	Leaves    int  // current number of leaf partitions
	MaxExtent Vec
	RawPages  int64
}

// Dataset returns the indexing state of one dataset. The tree state is a
// consistent snapshot taken under the dataset's read lock, so it is safe to
// call while queries run.
func (e *Explorer) Dataset(id DatasetID) (DatasetInfo, error) {
	e.mu.RLock()
	raw, ok := e.raws[id]
	e.mu.RUnlock()
	if !ok {
		return DatasetInfo{}, fmt.Errorf("odyssey: unknown dataset %d", id)
	}
	tree, _ := e.engine.TreeInfo(id)
	info := DatasetInfo{
		ID:       id,
		Objects:  raw.NumObjects(),
		RawPages: raw.NumPages(),
		Indexed:  tree.Built,
	}
	if tree.Built {
		info.Leaves = tree.Leaves
		info.MaxExtent = tree.MaxExtent
	}
	return info, nil
}

// MergeFileCount returns how many merge files currently exist.
func (e *Explorer) MergeFileCount() int { return e.engine.MergeFileCount() }

// MergeSpacePages returns the disk space merge files occupy.
func (e *Explorer) MergeSpacePages() int64 { return e.engine.MergeSpacePages() }

// TargetLevels predicts, via the paper's convergence equation, how many
// queries must hit a level-1 partition before it converges for queries of
// volume qVol.
func (e *Explorer) TargetLevels(id DatasetID, qVol float64) (int, error) {
	tree := e.engine.Tree(id)
	if tree == nil {
		return 0, fmt.Errorf("odyssey: unknown dataset %d", id)
	}
	ppl := tree.FanoutPerDim()
	vp := e.opts.Bounds.Volume() / float64(ppl*ppl*ppl)
	return tree.TargetLevels(vp, qVol), nil
}

// Quiesce blocks until the background maintenance pipeline has drained
// every queued and running task — the point where the physical layout has
// absorbed all scheduled refinements and merges for the traffic seen so
// far. Benchmarks and tests call it to compare converged layouts
// deterministically. Without Options.AsyncMaintenance it returns
// immediately (the synchronous engine converges inline). When ctx expires
// first, the wait aborts with a cancellation error; the pipeline keeps
// draining in the background regardless.
func (e *Explorer) Quiesce(ctx context.Context) error {
	return e.engine.Quiesce(ctx)
}

// MaintenanceStats snapshots the background maintenance pipeline's counters
// (queued/coalesced/completed tasks, queue-depth high-water). All zeros
// when AsyncMaintenance is off.
func (e *Explorer) MaintenanceStats() MaintenanceStats {
	return e.engine.MaintenanceStats()
}

// MaintenanceErr returns the most recent background maintenance task error
// (nil when every task succeeded or AsyncMaintenance is off). A failed task
// leaves the layout consistent but unconverged in its region, until the
// next query that wants the work enqueues it again.
func (e *Explorer) MaintenanceErr() error { return e.engine.MaintenanceErr() }

// SetFaultPlan installs (or, with the zero plan, clears) a deterministic
// device fault-injection plan across every member device of the storage
// topology: explicit per-file/page fault patterns and seeded probabilistic
// transient/permanent fault rates. Same seed, same reads of a page, same
// faults. Fault-injection is a
// test-and-benchmark surface; it composes with SetRetryPolicy (transient
// faults are retried) and with repair: a permanent fault on a tree partition
// or a merge file is rebuilt from the raw files on the path that read it,
// while one on a raw file fails the query.
func (e *Explorer) SetFaultPlan(plan FaultPlan) { e.dev.SetFaultPlan(plan) }

// SetRetryPolicy sets the storage-read retry policy, at any time: transient
// device read faults (ErrTransient) are retried up to MaxAttempts times with
// exponential wall-clock backoff, bounded by an optional per-read budget.
// Retries never extend the simulated clock — a faulted attempt charges
// nothing, so a retried read that succeeds costs exactly one clean read of
// simulated time. Permanent faults (ErrPermanent) fail fast without retrying.
// The zero policy, an Explorer's default, disables retries: every fault
// surfaces on first sight.
func (e *Explorer) SetRetryPolicy(p RetryPolicy) { e.dev.SetRetryPolicy(p) }

// SharingStats returns the scan-sharing ledger: cell reads answered by
// attaching to another query's in-flight read, and queries that waited out
// another's level-0 build. With Options.CacheResults off only SharedBuilds
// can count.
func (e *Explorer) SharingStats() SharingStats { return e.engine.SharingStats() }

// CacheStats returns the result-cache ledger (Options.CacheResults): hits,
// queries served with zero device reads, inserts, evictions, and
// invalidations. All zeros when caching is off.
func (e *Explorer) CacheStats() CacheStats { return e.engine.CacheStats() }

// FlushResultCache drops every entry of the result cache (a no-op with
// Options.CacheResults off). Benchmarks use it to start a measured phase
// cold-cache; the flush counts in CacheStats.Invalidations like a
// publish's targeted drop.
func (e *Explorer) FlushResultCache() { e.engine.FlushResultCache() }

// Close shuts the Explorer down: new queries and dataset registrations
// fail fast with ErrClosed, in-flight queries are waited out, the
// maintenance queue is cancel-and-drained (queued tasks dropped, running
// tasks completed — layout mutations are never interrupted mid-way), and
// only then is the simulated device closed, so no maintenance writer can
// ever race device shutdown. Idempotent and safe to call concurrently with
// queries; inspection methods (Clock, DiskStats, Metrics) keep working on
// a closed Explorer.
func (e *Explorer) Close() error {
	e.closeOnce.Do(func() {
		e.closed.Store(true)
		// Taking mu exclusively waits out every in-flight query (they hold
		// it shared for their full duration); new ones fail fast on the
		// flag.
		e.mu.Lock()
		defer e.mu.Unlock()
		e.engine.Close()
		e.closeErr = e.dev.Close()
		close(e.closeDone)
	})
	// Losers of the once race wait for the shutdown to actually finish, so
	// every returning Close call means "closed", not "closing".
	<-e.closeDone
	return e.closeErr
}

// Engine exposes the underlying core engine for advanced inspection.
func (e *Explorer) Engine() *core.Odyssey { return e.engine }
