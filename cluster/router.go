package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	odyssey "spaceodyssey"
	"spaceodyssey/internal/simdisk"
)

// RouterStats is the cluster serving ledger.
type RouterStats struct {
	// Queries counts queries submitted to the Router; every one ends in
	// exactly one of Served, Partial or Failed.
	Queries int64
	// SubQueries counts shard legs executed (failover retries and hedge
	// legs included).
	SubQueries int64
	// Served, Partial and Failed classify query outcomes: complete answer,
	// ServePartial subset, or error.
	Served  int64
	Partial int64
	Failed  int64
	// Failovers counts sub-queries moved to another replica after a
	// failoverable error; Retries counts the failover loop's non-first
	// attempts (each retry that switches shards is also a failover).
	Failovers int64
	Retries   int64
	// HedgesFired counts hedge legs launched after the p99 delay expired;
	// HedgeWins counts hedged legs whose response was the one returned;
	// HedgeDiscarded counts legs that completed successfully but lost the
	// first-response race.
	HedgesFired    int64
	HedgeWins      int64
	HedgeDiscarded int64
	// ShardRejects counts sub-queries rejected by crashed shards.
	ShardRejects int64
	// ChargedSim is the simulated time attributed to returned answers (the
	// winning leg of every served sub-query); WastedSim is the simulated
	// time charged by legs whose result was not returned — hedge losers and
	// failed or canceled legs. Their sum equals the shards' device-side
	// charge ledger exactly (busy + cache-hit + queueing): hedging
	// re-routes charges, it never double-counts them.
	ChargedSim time.Duration
	WastedSim  time.Duration
}

// Router fans range queries out over a set of Explorer shards, merges the
// sub-results deterministically, and survives shard failure through
// failover, hedged reads and (optionally) partial serving. It is safe for
// concurrent use; Close drains in-flight work and closes every shard.
type Router struct {
	cfg     Config
	shards  []*shard
	place   *placement
	tracker *latencyTracker

	// plan is the installed shard fault plan (nil = none).
	plan atomic.Pointer[ShardFaultPlan]
	// ord numbers queries; the fault plan's crash and slow windows are
	// evaluated against it.
	ord atomic.Int64
	// legs tracks in-flight sub-query goroutines: a hedge loser may outlive
	// its query, and Close must wait it out before closing the shards.
	legs sync.WaitGroup

	// mu orders queries (shared) against AddDataset and Close (exclusive),
	// the Explorer's own discipline one level up.
	mu sync.RWMutex

	closed    atomic.Bool
	closeOnce sync.Once
	closeDone chan struct{}
	closeErr  error

	subQueries     atomic.Int64
	served         atomic.Int64
	partialCnt     atomic.Int64
	failed         atomic.Int64
	failovers      atomic.Int64
	retries        atomic.Int64
	hedgesFired    atomic.Int64
	hedgeWins      atomic.Int64
	hedgeDiscarded atomic.Int64
	chargedSim     atomic.Int64
	wastedSim      atomic.Int64
}

// New builds a cluster of cfg.Shards Explorers, each with its own simulated
// device. Datasets are registered afterwards with AddDataset /
// AddDatasetReplicated.
func New(cfg Config) (*Router, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 2
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 1
	}
	if cfg.Replicas > cfg.Shards {
		cfg.Replicas = cfg.Shards
	}
	r := &Router{
		cfg:       cfg,
		place:     newPlacement(cfg.Shards),
		tracker:   newLatencyTracker(),
		closeDone: make(chan struct{}),
	}
	for i := 0; i < cfg.Shards; i++ {
		ex, err := odyssey.NewExplorer(cfg.Options)
		if err != nil {
			for _, s := range r.shards {
				s.ex.Close()
			}
			return nil, err
		}
		r.shards = append(r.shards, &shard{id: i, ex: ex, r: r})
	}
	return r, nil
}

// NumShards returns the shard count.
func (r *Router) NumShards() int { return len(r.shards) }

// AddDataset registers a dataset on its cfg.Replicas replica shards.
func (r *Router) AddDataset(id odyssey.DatasetID, objs []odyssey.Object) error {
	return r.AddDatasetReplicated(id, objs, r.cfg.Replicas)
}

// AddDatasetReplicated registers a dataset with an explicit replication
// factor, overriding cfg.Replicas — the lever for keeping extra replicas of
// hot datasets. replicas is clamped to [1, Shards].
func (r *Router) AddDatasetReplicated(id odyssey.DatasetID, objs []odyssey.Object, replicas int) error {
	if r.closed.Load() {
		return ErrClosed
	}
	if replicas <= 0 {
		replicas = 1
	}
	if replicas > len(r.shards) {
		replicas = len(r.shards)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed.Load() {
		return ErrClosed
	}
	if _, dup := r.place.replicas[id]; dup {
		return fmt.Errorf("cluster: dataset %d already added", id)
	}
	set := make([]int, replicas)
	for i := range set {
		set[i] = (int(id) + i) % len(r.shards)
	}
	for _, si := range set {
		if err := r.shards[si].ex.AddDataset(id, objs); err != nil {
			return err
		}
	}
	r.place.replicas[id] = set
	return nil
}

// Replicas returns the ordered replica shard set of a dataset (nil when
// unknown).
func (r *Router) Replicas(id odyssey.DatasetID) []int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	set := r.place.replicas[id]
	return append([]int(nil), set...)
}

// SetShardFaultPlan installs (or, with the zero plan, clears) the
// deterministic shard-level fault plan.
func (r *Router) SetShardFaultPlan(plan ShardFaultPlan) {
	if len(plan.Faults) == 0 {
		r.plan.Store(nil)
		return
	}
	r.plan.Store(&plan)
}

// Crash manually fails a shard: its sub-queries reject with ErrShardDown
// until Restore. The fault-injection surface tests and benchmarks drive;
// out of range indices are ignored.
func (r *Router) Crash(shard int) {
	if shard >= 0 && shard < len(r.shards) {
		r.shards[shard].crashed.Store(true)
	}
}

// Restore clears a manual Crash.
func (r *Router) Restore(shard int) {
	if shard >= 0 && shard < len(r.shards) {
		r.shards[shard].crashed.Store(false)
	}
}

// Query returns all objects intersecting q in the requested datasets, by
// fanning sub-queries out to the shards owning them and merging the
// answers into (dataset, id) order — a deterministic result set however
// the fan-out raced. See QueryCtx for the failure contract.
func (r *Router) Query(q odyssey.Box, datasets []odyssey.DatasetID) ([]odyssey.Object, error) {
	return r.QueryCtx(context.Background(), q, datasets)
}

// QueryCtx is Query with cancellation and deadline support. Sub-queries
// inherit ctx; each leg additionally runs under its own fresh charge scope
// (hedge legs never share one). When every replica of some requested
// dataset is unreachable the outcome follows cfg.Policy: FailFast returns
// an error wrapping ErrNoReplica; ServePartial returns the objects of the
// reachable datasets plus a *PartialError naming the missing ones.
func (r *Router) QueryCtx(ctx context.Context, q odyssey.Box, datasets []odyssey.DatasetID) ([]odyssey.Object, error) {
	if len(datasets) == 0 {
		return nil, fmt.Errorf("cluster: query names no datasets")
	}
	if r.closed.Load() {
		return nil, ErrClosed
	}
	if err := simdisk.CheckCtx(ctx); err != nil {
		return nil, err
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.closed.Load() {
		return nil, ErrClosed
	}
	ord := r.ord.Add(1) - 1
	groups, err := r.place.groups(datasets)
	if err != nil {
		r.failed.Add(1)
		return nil, err
	}
	type groupOut struct {
		objs []odyssey.Object
		err  error
	}
	outs := make([]groupOut, len(groups))
	var wg sync.WaitGroup
	for i := range groups {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			objs, err := r.serveGroup(ctx, q, groups[i], ord)
			outs[i] = groupOut{objs, err}
		}(i)
	}
	wg.Wait()

	var merged []odyssey.Object
	var missing []odyssey.DatasetID
	var cause error
	for i, o := range outs {
		switch {
		case o.err == nil:
			merged = append(merged, o.objs...)
		case errors.Is(o.err, ErrNoReplica):
			// An availability failure: every replica of this group was
			// exhausted. ServePartial keeps going; FailFast fails the query.
			if r.cfg.Policy == ServePartial {
				missing = append(missing, groups[i].datasets...)
				if cause == nil {
					cause = o.err
				}
				continue
			}
			r.failed.Add(1)
			return nil, o.err
		default:
			// A hard failure (cancellation, structural error) fails the
			// query under either policy.
			r.failed.Add(1)
			return nil, o.err
		}
	}
	if len(missing) == len(datasets) {
		// Nothing was served; a "partial" result with zero datasets is a
		// failure under any policy.
		r.failed.Add(1)
		return nil, cause
	}
	sortObjects(merged)
	if missing != nil {
		r.partialCnt.Add(1)
		return merged, &PartialError{Missing: missing, Cause: cause}
	}
	r.served.Add(1)
	return merged, nil
}

// failoverable classifies an error as a shard-availability failure worth
// trying another replica for: a crashed shard, a closed shard Explorer, or
// a device-level read fault that survived the shard's own page retries.
// Cancellations are never failed over — the caller gave up, and a
// canceled hedge loser must not look like an outage.
func failoverable(err error) bool {
	if err == nil || odyssey.IsCanceled(err) {
		return false
	}
	return errors.Is(err, ErrShardDown) || errors.Is(err, odyssey.ErrClosed) ||
		errors.Is(err, odyssey.ErrTransient) || errors.Is(err, odyssey.ErrPermanent)
}

// orderCandidates orders a group's replica shards for serving: up shards
// first, then down — down shards stay in the list as a last resort, so a
// manual Restore between the read and the serve is still found. Up or down
// is shard.down at the query's ordinal, so a group is lost exactly when
// every replica is down at that ordinal. The up shards are rotated by the
// query's ordinal, so reads spread across replicas as a function of the
// query alone: the groups of one query, whose replica arcs start on
// different shards, start on different shards too, however their goroutines
// interleave (a counter shared by the groups sent them to the same one).
func (r *Router) orderCandidates(replicas []int, ord int64) []*shard {
	var up, down []*shard
	for _, id := range replicas {
		s := r.shards[id]
		if s.down(ord) {
			down = append(down, s)
		} else {
			up = append(up, s)
		}
	}
	if len(up) > 1 {
		rot := int(ord % int64(len(up)))
		rotated := make([]*shard, 0, len(up))
		rotated = append(rotated, up[rot:]...)
		rotated = append(rotated, up[:rot]...)
		up = rotated
	}
	return append(up, down...)
}

// serveGroup answers one fan-out group, failing over across its replicas
// under the budgeted retry/backoff policy. Exhausting every attempt wraps
// ErrNoReplica — the signal the partial policy keys on.
func (r *Router) serveGroup(ctx context.Context, q odyssey.Box, g group, ord int64) ([]odyssey.Object, error) {
	cands := r.orderCandidates(g.replicas, ord)
	pol := r.cfg.Failover
	attempts := pol.MaxAttempts
	if attempts <= 1 {
		attempts = len(cands)
	}
	sched := pol.Schedule()
	var lastErr error
	for a := 0; a < attempts; a++ {
		if a > 0 {
			r.retries.Add(1)
			if ok, err := sched.Wait(ctx); err != nil {
				return nil, err
			} else if !ok {
				return nil, fmt.Errorf("%w: failover budget %v exhausted after %d attempts: %w",
					ErrNoReplica, pol.Budget, a, lastErr)
			}
		}
		s := cands[a%len(cands)]
		var alt *shard
		if r.cfg.Hedge.Enabled && len(cands) > 1 {
			alt = cands[(a+1)%len(cands)]
		}
		objs, err := r.runHedged(ctx, q, g.datasets, s, alt, ord)
		if err == nil {
			return objs, nil
		}
		lastErr = err
		if !failoverable(err) {
			return nil, err
		}
		if a+1 < attempts {
			r.failovers.Add(1)
		}
	}
	return nil, fmt.Errorf("%w: %v replicas exhausted: %w", ErrNoReplica, len(cands), lastErr)
}

// runHedged executes one sub-query on shard s, hedging onto alt (when
// non-nil) if s has not answered within the tracked p99 delay. First
// response wins by CAS arbitration, and winning cancels the other leg
// mid-flight through the ordinary QueryCtx machinery. Every leg runs under
// its own fresh charge scope inside shard.serve, and a losing leg's charges
// are ledgered as WastedSim by the leg itself, so charge conservation stays
// exact and nothing is ever double-counted.
func (r *Router) runHedged(ctx context.Context, q odyssey.Box, dss []odyssey.DatasetID, s, alt *shard, ord int64) ([]odyssey.Object, error) {
	type legOut struct {
		objs []odyssey.Object
		err  error
		won  bool
	}
	lctx, cancel := context.WithCancel(ctx)
	defer cancel()
	won := new(atomic.Bool)
	out := make(chan legOut, 2)
	leg := func(sh *shard, hedge bool) {
		r.legs.Add(1)
		go func() {
			defer r.legs.Done()
			t0 := time.Now()
			objs, dur, err := sh.serve(lctx, q, dss, ord)
			r.subQueries.Add(1)
			if err == nil && won.CompareAndSwap(false, true) {
				r.chargedSim.Add(int64(dur))
				// Only returned latencies feed the hedge trigger: the p99
				// tracks what callers experience, so a slow-shard storm
				// cannot disarm hedging by inflating it.
				r.tracker.observe(time.Since(t0))
				if hedge {
					r.hedgeWins.Add(1)
				}
				cancel() // cut the losing leg short
				out <- legOut{objs: objs, won: true}
				return
			}
			// Lost the race, or failed: real device work whose result is
			// not returned — ledger it so conservation stays exact.
			r.wastedSim.Add(int64(dur))
			if err == nil {
				r.hedgeDiscarded.Add(1)
			}
			out <- legOut{err: err}
		}()
	}
	leg(s, false)
	launched := 1
	var hedgeCh <-chan time.Time
	if alt != nil {
		timer := time.NewTimer(r.tracker.delay())
		defer timer.Stop()
		hedgeCh = timer.C
	}
	var lastErr error
	for got := 0; got < launched; {
		select {
		case o := <-out:
			got++
			if o.won {
				return o.objs, nil
			}
			if o.err != nil {
				lastErr = o.err
			}
		case <-hedgeCh:
			hedgeCh = nil
			r.hedgesFired.Add(1)
			launched++
			leg(alt, true)
		}
	}
	if lastErr == nil {
		lastErr = ErrShardDown
	}
	return nil, lastErr
}

// Stats snapshots the cluster serving ledger. Under concurrent load the
// snapshot is per-counter consistent; after Close it is exact.
func (r *Router) Stats() RouterStats {
	var rejects int64
	for _, s := range r.shards {
		rejects += s.rejects.Load()
	}
	return RouterStats{
		Queries:        r.ord.Load(),
		SubQueries:     r.subQueries.Load(),
		Served:         r.served.Load(),
		Partial:        r.partialCnt.Load(),
		Failed:         r.failed.Load(),
		Failovers:      r.failovers.Load(),
		Retries:        r.retries.Load(),
		HedgesFired:    r.hedgesFired.Load(),
		HedgeWins:      r.hedgeWins.Load(),
		HedgeDiscarded: r.hedgeDiscarded.Load(),
		ShardRejects:   rejects,
		ChargedSim:     time.Duration(r.chargedSim.Load()),
		WastedSim:      time.Duration(r.wastedSim.Load()),
	}
}

// ShardHealth is one shard's externally visible health snapshot
// (Router.Health).
type ShardHealth struct {
	// Shard is the shard index.
	Shard int
	// Down is what routing reads for the next query: the shard is manually
	// crashed or inside a planned crash window at the current ordinal.
	Down bool
	// Serves and Rejects count sub-queries this shard answered and
	// sub-queries it rejected while down.
	Serves  int64
	Rejects int64
}

// Health snapshots every shard's health: its down verdict at the current
// ordinal and its serve ledger.
func (r *Router) Health() []ShardHealth {
	ord := r.ord.Load()
	out := make([]ShardHealth, len(r.shards))
	for i, s := range r.shards {
		out[i] = ShardHealth{Shard: i, Down: s.down(ord), Serves: s.serves.Load(), Rejects: s.rejects.Load()}
	}
	return out
}

// ShardMetrics returns each shard Explorer's engine counters — the
// convergence signal measurement harnesses watch (no refinements or merges
// across a pass means the shard layouts are settled).
func (r *Router) ShardMetrics() []odyssey.Metrics {
	out := make([]odyssey.Metrics, len(r.shards))
	for i, s := range r.shards {
		out[i] = s.ex.Metrics()
	}
	return out
}

// ShardDiskStats returns each shard Explorer's device counters.
func (r *Router) ShardDiskStats() []odyssey.DiskStats {
	out := make([]odyssey.DiskStats, len(r.shards))
	for i, s := range r.shards {
		out[i] = s.ex.DiskStats()
	}
	return out
}

// ShardChannelStats returns each shard's per-device, per-channel counters
// (outer index: shard).
func (r *Router) ShardChannelStats() [][][]odyssey.ChannelStats {
	out := make([][][]odyssey.ChannelStats, len(r.shards))
	for i, s := range r.shards {
		out[i] = s.ex.ChannelStats()
	}
	return out
}

// ResetStats zeroes every shard's device counters (see
// Explorer.ResetStats); ResetClocks zeroes their simulated clocks.
// Measurement harnesses call them between phases; must not race in-flight
// queries whose numbers matter.
func (r *Router) ResetStats() {
	for _, s := range r.shards {
		s.ex.ResetStats()
	}
}

// ResetClocks zeroes every shard's simulated clock.
func (r *Router) ResetClocks() {
	for _, s := range r.shards {
		s.ex.ResetClock()
	}
}

// SetRealTimeScale fans the real-time emulation scale out to every shard.
func (r *Router) SetRealTimeScale(scale float64) {
	for _, s := range r.shards {
		s.ex.SetRealTimeScale(scale)
	}
}

// Quiesce drains every shard's background maintenance pipeline.
func (r *Router) Quiesce(ctx context.Context) error {
	for _, s := range r.shards {
		if err := s.ex.Quiesce(ctx); err != nil {
			return err
		}
	}
	return nil
}

// Close shuts the cluster down: new queries and registrations fail fast
// with ErrClosed, in-flight queries are waited out, stray hedge losers are
// drained, and every shard Explorer is closed (which itself drains
// shard-side maintenance before closing its device).
// Idempotent and safe to call concurrently with queries.
func (r *Router) Close() error {
	r.closeOnce.Do(func() {
		r.closed.Store(true)
		// Taking mu exclusively waits out every in-flight query; new ones
		// fail fast on the flag.
		r.mu.Lock()
		defer r.mu.Unlock()
		// A hedge loser can outlive the query that launched it; no new leg
		// can start now (legs are launched under the query's read lock), so
		// this wait is bounded by the losers' cancellation latency.
		r.legs.Wait()
		for _, s := range r.shards {
			if err := s.ex.Close(); err != nil && r.closeErr == nil {
				r.closeErr = err
			}
		}
		close(r.closeDone)
	})
	<-r.closeDone
	return r.closeErr
}
