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
	// exactly one of Served or Failed.
	Queries int64
	// SubQueries counts shard legs executed (failover attempts included).
	SubQueries int64
	// Served and Failed classify query outcomes: complete answer or error.
	Served int64
	Failed int64
	// Failovers counts sub-queries moved to another replica after a
	// failoverable error.
	Failovers int64
	// ShardRejects counts sub-queries rejected by crashed shards.
	ShardRejects int64
	// ChargedSim is the simulated time attributed to returned answers (the
	// served leg of every sub-query); WastedSim is the simulated time
	// charged by legs whose result was not returned — failed or canceled
	// legs. Their sum equals the shards' device-side charge ledger exactly
	// (busy + cache-hit + queueing): failover re-routes charges, it never
	// double-counts them.
	ChargedSim time.Duration
	WastedSim  time.Duration
}

// Router fans range queries out over a set of Explorer shards, merges the
// sub-results deterministically, and survives shard failure through
// failover. It is safe for concurrent use; Close drains in-flight work and
// closes every shard.
type Router struct {
	cfg    Config
	shards []*shard
	place  *placement

	// plan is the installed shard fault plan (nil = none).
	plan atomic.Pointer[ShardFaultPlan]
	// ord numbers queries; the fault plan's crash windows are evaluated
	// against it.
	ord atomic.Int64

	// mu orders queries (shared) against AddDataset and Close (exclusive),
	// the Explorer's own discipline one level up.
	mu sync.RWMutex

	closed    atomic.Bool
	closeOnce sync.Once
	closeDone chan struct{}
	closeErr  error

	subQueries atomic.Int64
	served     atomic.Int64
	failed     atomic.Int64
	failovers  atomic.Int64
	chargedSim atomic.Int64
	wastedSim  atomic.Int64
}

// New builds a cluster of cfg.Shards Explorers, each with its own simulated
// device. Datasets are registered afterwards with AddDataset.
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

// AddDataset registers a dataset on its cfg.Replicas replica shards.
func (r *Router) AddDataset(id odyssey.DatasetID, objs []odyssey.Object) error {
	if r.closed.Load() {
		return ErrClosed
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed.Load() {
		return ErrClosed
	}
	if _, dup := r.place.replicas[id]; dup {
		return fmt.Errorf("cluster: dataset %d already added", id)
	}
	set := make([]int, r.cfg.Replicas)
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

// SetShardFaultPlan installs (or, with the zero plan, clears) the
// deterministic shard-level fault plan.
func (r *Router) SetShardFaultPlan(plan ShardFaultPlan) {
	if len(plan.Faults) == 0 {
		r.plan.Store(nil)
		return
	}
	r.plan.Store(&plan)
}

// Query returns all objects intersecting q in the requested datasets, by
// fanning sub-queries out to the shards owning them and merging the
// answers into (dataset, id) order — a deterministic result set however
// the fan-out raced. See QueryCtx for the failure contract.
func (r *Router) Query(q odyssey.Box, datasets []odyssey.DatasetID) ([]odyssey.Object, error) {
	return r.QueryCtx(context.Background(), q, datasets)
}

// QueryCtx is Query with cancellation and deadline support. Sub-queries
// inherit ctx; each leg additionally runs under its own fresh charge scope.
// When every replica of some requested dataset is unreachable the query
// fails with an error wrapping ErrNoReplica.
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
	// The first round runs every group's first leg at once; the failover legs
	// run after it, one at a time in group order, so that a failover leg never
	// runs beside another leg of its query on the shard it moves to, and what
	// it charges does not depend on how the legs interleaved.
	outs := make([]groupOut, len(groups))
	var wg sync.WaitGroup
	for i := range groups {
		outs[i].cands = r.orderCandidates(groups[i].replicas, ord)
		wg.Add(1)
		go func(o *groupOut, g group) {
			defer wg.Done()
			o.objs, o.err = r.serveLeg(ctx, q, g, o.cands[0], ord)
		}(&outs[i], groups[i])
	}
	wg.Wait()
	for i := range outs {
		r.failover(ctx, q, groups[i], &outs[i], ord)
	}

	var merged []odyssey.Object
	for _, o := range outs {
		if o.err != nil {
			// An unreachable dataset (ErrNoReplica), a cancellation or a
			// structural error fails the whole query.
			r.failed.Add(1)
			return nil, o.err
		}
		merged = append(merged, o.objs...)
	}
	sortObjects(merged)
	r.served.Add(1)
	return merged, nil
}

// failoverable classifies an error as a shard-availability failure worth
// trying another replica for: a crashed shard, a closed shard Explorer, or
// a device-level read fault that survived the shard's own page retries.
// Cancellations are never failed over — the caller gave up, which is not
// an outage.
func failoverable(err error) bool {
	if err == nil || odyssey.IsCanceled(err) {
		return false
	}
	return errors.Is(err, ErrShardDown) || errors.Is(err, odyssey.ErrClosed) ||
		errors.Is(err, odyssey.ErrTransient) || errors.Is(err, odyssey.ErrPermanent)
}

// orderCandidates orders a group's replica shards for serving: up shards
// first, then down. Up or down is shard.down at the query's ordinal, so a
// group is lost exactly when every replica is down at that ordinal. Down
// shards stay in the list, last: each one tried rejects (ShardRejects) at no
// charge, which keeps a lost group's cost a fixed function of its replica
// count. The up shards are rotated by the query's ordinal, so reads spread
// across replicas as a function of the query alone: the groups of one
// query, whose replica arcs start on different shards, start on different
// shards too, however their goroutines interleave (a counter shared by the
// groups sent them to the same one).
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

// groupOut is one fan-out group's outcome: its replica shards in
// orderCandidates' order, and the answer or error of the last leg tried.
type groupOut struct {
	cands []*shard
	objs  []odyssey.Object
	err   error
}

// serveLeg runs one leg of group g on shard s and books its charge once: a
// served leg's as ChargedSim, any other — device work whose result is not
// returned — as WastedSim, so conservation stays exact.
func (r *Router) serveLeg(ctx context.Context, q odyssey.Box, g group, s *shard, ord int64) ([]odyssey.Object, error) {
	objs, dur, err := s.serve(ctx, q, g.datasets, ord)
	r.subQueries.Add(1)
	if err != nil {
		r.wastedSim.Add(int64(dur))
		return nil, err
	}
	r.chargedSim.Add(int64(dur))
	return objs, nil
}

// failover goes on with a group whose first leg failed with a failoverable
// error, trying each of its other replicas once, in order, until one serves
// or fails for another reason. Exhausting every replica wraps ErrNoReplica.
func (r *Router) failover(ctx context.Context, q odyssey.Box, g group, o *groupOut, ord int64) {
	for _, s := range o.cands[1:] {
		if !failoverable(o.err) {
			return
		}
		r.failovers.Add(1)
		o.objs, o.err = r.serveLeg(ctx, q, g, s, ord)
	}
	if failoverable(o.err) {
		o.err = fmt.Errorf("%w: %v replicas exhausted: %w", ErrNoReplica, len(o.cands), o.err)
	}
}

// Stats snapshots the cluster serving ledger. Under concurrent load the
// snapshot is per-counter consistent; after Close it is exact.
func (r *Router) Stats() RouterStats {
	var rejects int64
	for _, s := range r.shards {
		rejects += s.rejects.Load()
	}
	return RouterStats{
		Queries:      r.ord.Load(),
		SubQueries:   r.subQueries.Load(),
		Served:       r.served.Load(),
		Failed:       r.failed.Load(),
		Failovers:    r.failovers.Load(),
		ShardRejects: rejects,
		ChargedSim:   time.Duration(r.chargedSim.Load()),
		WastedSim:    time.Duration(r.wastedSim.Load()),
	}
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
// with ErrClosed, in-flight queries are waited out, and every shard
// Explorer is closed (which itself drains shard-side maintenance before
// closing its device).
// Idempotent and safe to call concurrently with queries.
func (r *Router) Close() error {
	r.closeOnce.Do(func() {
		r.closed.Store(true)
		// Taking mu exclusively waits out every in-flight query; new ones
		// fail fast on the flag.
		r.mu.Lock()
		defer r.mu.Unlock()
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
