// Package cluster scales the Space Odyssey serving stack out horizontally:
// N Explorer shards (dataset-partitioned, with replication factor R) behind
// a Router that fans range queries out to the shards owning the requested
// datasets, merges the sub-results deterministically, and survives shard
// failure. It promotes the device layer's fault-tolerance discipline to a
// new fault domain — the whole shard:
//
//   - Routing on the fault it reads: a shard is down when it is inside a
//     crash window of the plan at the query's ordinal. Live replicas are
//     tried first, down ones only as a last resort, so a query's routing is
//     a function of the plan, the placement and its ordinal — no probe
//     loop, no ticker.
//   - Automatic failover: a sub-query that fails on one replica moves to
//     the next, each replica tried once, so a crashed shard costs a
//     failover, not an outage, as long as a replica lives.
//   - Hedged requests: when a sub-query outlives the tracked p99 of recent
//     served latencies, a hedge fires against another live replica; the
//     first response wins by CAS arbitration and the loser is canceled
//     through the ordinary QueryCtx machinery. Every leg runs under its own
//     fresh charge scope, so hedging can never double-count cache or charge
//     statistics — the loser's partial charges are ledgered as WastedSim,
//     keeping the cluster-wide charge conservation identity exact.
//   - Failing fast: when a requested dataset has no live replica the whole
//     query fails with an error wrapping ErrNoReplica — never a silently
//     truncated result set.
//
// Shard-level fault injection (ShardFaultPlan: crash windows and slow-shard
// storms) is deterministic — windows are expressed in query ordinals, not
// wall clock — so every failure mode above is testable; results are pinned
// byte-identical to a single Explorer over the union of datasets, including
// mid-crash.
package cluster

import (
	"errors"

	odyssey "spaceodyssey"
)

// Sentinel errors of the cluster layer.
var (
	// ErrClosed is returned by Query/AddDataset after Router.Close.
	ErrClosed = errors.New("cluster: router closed")

	// ErrShardDown marks a sub-query rejected by a shard inside a
	// ShardFaultPlan crash window. The Router fails such sub-queries over to
	// the next replica; callers see it only when every replica of a dataset
	// is down.
	ErrShardDown = errors.New("cluster: shard down")

	// ErrNoReplica means a requested dataset had no live replica: every
	// replica was tried and failed. The whole query fails with it.
	ErrNoReplica = errors.New("cluster: no live replica for dataset")
)

// HedgeConfig tunes hedged sub-queries (off by default).
type HedgeConfig struct {
	// Enabled turns hedging on: a sub-query that outlives the hedge delay —
	// the p99 of recent served latencies, clamped into [hedgeMinDelay,
	// hedgeMaxDelay] — fires a second leg against another live replica;
	// first response wins.
	Enabled bool
}

// Config configures a cluster.
type Config struct {
	// Shards is the shard count N (default 2).
	Shards int
	// Replicas is the replication factor R applied to every dataset added
	// with AddDataset (default 1 — partitioning only). Clamped to Shards.
	Replicas int
	// Options configures each shard's Explorer. Every shard gets the same
	// options (its own simulated device, cache, and maintenance pipeline).
	Options odyssey.Options
	// Hedge tunes hedged sub-queries.
	Hedge HedgeConfig
}
