// Package cluster scales the Space Odyssey serving stack out horizontally:
// N Explorer shards (dataset-partitioned, with replication factor R) behind
// a Router that fans range queries out to the shards owning the requested
// datasets, merges the sub-results deterministically, and survives shard
// failure. It promotes the fault-tolerance discipline PR 8 built at the
// device level to a new fault domain — the whole shard:
//
//   - Per-shard health checking: a probe loop per shard feeds an up/down
//     state machine with hysteresis, so routing prefers live replicas
//     without flapping on one stray probe.
//   - Automatic failover: reads retry against the next replica under a
//     budgeted retry/backoff policy (the RetryPolicy shape of the
//     storage-read retries), so a crashed shard costs a failover, not an
//     outage, as long as a replica lives.
//   - Hedged requests: when a sub-query outlives the tracked p99 of recent
//     served latencies, a hedge fires against another live replica; the
//     first response wins (CAS arbitration, the dispatcher sweeper's
//     idiom) and the loser is canceled through the ordinary QueryCtx
//     machinery. Every leg runs under its own fresh charge scope, so
//     hedging can never double-count cache or charge statistics — the
//     loser's partial charges are ledgered as HedgeWastedSim, keeping the
//     cluster-wide charge conservation identity exact.
//   - Graceful degradation: when a dataset has no live replica the Router
//     either fails fast (default) or, under ServePartial, returns the
//     served subset with a PartialError naming the missing datasets.
//
// Shard-level fault injection (ShardFaultPlan: crash windows, slow-shard
// storms, probe flaps) is deterministic — windows are expressed in query
// and probe ordinals, not wall clock — so every failure mode above is
// testable and benchmarkable; results are pinned byte-identical to a
// single Explorer over the union of datasets, including mid-crash.
package cluster

import (
	"errors"
	"fmt"
	"time"

	odyssey "spaceodyssey"
)

// Sentinel errors of the cluster layer.
var (
	// ErrClosed is returned by Query/AddDataset after Router.Close.
	ErrClosed = errors.New("cluster: router closed")

	// ErrShardDown marks a sub-query rejected by a crashed shard (manual
	// Crash, or a ShardFaultPlan crash window). The Router fails such
	// sub-queries over to the next replica; callers see it only when every
	// replica of a dataset is down.
	ErrShardDown = errors.New("cluster: shard down")

	// ErrNoReplica means a requested dataset had no live replica and every
	// failover attempt was exhausted. Under the default FailFast policy the
	// whole query fails with it; under ServePartial it appears inside the
	// PartialError's cause.
	ErrNoReplica = errors.New("cluster: no live replica for dataset")

	// ErrPartial marks a query answered from a subset of its datasets
	// (PartialPolicy ServePartial): the returned objects are complete for
	// every served dataset, and the PartialError wrapping this sentinel
	// names the missing ones.
	ErrPartial = errors.New("cluster: partial result")
)

// PartialError is the ServePartial outcome: the query was answered, but
// only from the datasets whose shards were reachable. It wraps ErrPartial
// (and the last failover error as the cause), so errors.Is(err, ErrPartial)
// identifies it.
type PartialError struct {
	// Missing lists the requested datasets no live replica could serve.
	Missing []odyssey.DatasetID
	// Cause is the last failover error of the first missing group.
	Cause error
}

func (e *PartialError) Error() string {
	return fmt.Sprintf("cluster: partial result, %d dataset(s) unavailable: %v", len(e.Missing), e.Cause)
}

func (e *PartialError) Unwrap() []error { return []error{ErrPartial, e.Cause} }

// PartialPolicy selects what a query returns when some requested dataset
// has no live replica.
type PartialPolicy int

const (
	// FailFast (default) fails the whole query with an error wrapping
	// ErrNoReplica: callers that need the complete answer get a clean
	// failure, never a silently truncated result set.
	FailFast PartialPolicy = iota
	// ServePartial returns the objects of every reachable dataset together
	// with a *PartialError naming the missing ones — availability over
	// completeness, for callers that degrade gracefully.
	ServePartial
)

// HealthConfig tunes the per-shard probe loop and its hysteresis.
type HealthConfig struct {
	// ProbeInterval is the probe loop's period (default 5ms).
	ProbeInterval time.Duration
	// DownAfter is how many consecutive probe failures mark a shard down
	// (default 2). A single flapped probe never changes routing.
	DownAfter int
	// UpAfter is how many consecutive probe successes bring a down shard
	// back up (default 2) — hysteresis against flapping at the boundary.
	UpAfter int
}

func (h HealthConfig) withDefaults() HealthConfig {
	if h.ProbeInterval <= 0 {
		h.ProbeInterval = 5 * time.Millisecond
	}
	if h.DownAfter <= 0 {
		h.DownAfter = 2
	}
	if h.UpAfter <= 0 {
		h.UpAfter = 2
	}
	return h
}

// HedgeConfig tunes hedged sub-queries (off by default).
type HedgeConfig struct {
	// Enabled turns hedging on: a sub-query that outlives the hedge delay
	// fires a second leg against another live replica; first response wins.
	Enabled bool
	// MinDelay floors the hedge delay (default 2ms): the tracker's p99 is
	// never trusted below it, so a cold tracker does not hedge everything.
	MinDelay time.Duration
	// MaxDelay caps the hedge delay (default 250ms), bounding how long a
	// stuck shard can defer its hedge.
	MaxDelay time.Duration
	// Window is how many recent served latencies the p99 tracker retains
	// (default 512). Only winning legs feed the tracker — a slow loser's
	// latency never drags the p99 up, so hedging keeps engaging for the
	// whole length of a slow-shard storm.
	Window int
}

func (h HedgeConfig) withDefaults() HedgeConfig {
	if h.MinDelay <= 0 {
		h.MinDelay = 2 * time.Millisecond
	}
	if h.MaxDelay <= 0 {
		h.MaxDelay = 250 * time.Millisecond
	}
	if h.Window <= 0 {
		h.Window = 512
	}
	return h
}

// Config configures a cluster.
type Config struct {
	// Shards is the shard count N (default 2).
	Shards int
	// Replicas is the replication factor R applied to every dataset added
	// with AddDataset (default 1 — partitioning only). Clamped to Shards.
	// AddDatasetReplicated overrides it per dataset, so hot datasets can
	// carry more replicas than the cold tail.
	Replicas int
	// Options configures each shard's Explorer. Every shard gets the same
	// options (its own simulated device, cache, and maintenance pipeline).
	Options odyssey.Options
	// Policy selects the no-live-replica behaviour (default FailFast).
	Policy PartialPolicy
	// Failover is the budgeted retry/backoff policy for failing a
	// sub-query over to the next replica: MaxAttempts bounds total serve
	// attempts per replica group (<= 1 defaults to one attempt per
	// replica), Backoff is the wall-clock sleep before the first retry
	// (doubling per retry), Budget caps the cumulative backoff. The shape
	// is the storage layer's RetryPolicy, one fault domain up.
	Failover odyssey.RetryPolicy
	// Health tunes the per-shard probe loop.
	Health HealthConfig
	// Hedge tunes hedged sub-queries.
	Hedge HedgeConfig
}
