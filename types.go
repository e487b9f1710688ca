// Package odyssey is the public API of the Space Odyssey reproduction: an
// engine for efficient exploration of multiple spatial datasets that
// incrementally indexes data as range queries arrive (no upfront indexing)
// and reorganizes the on-disk layout so that areas of datasets queried
// together are stored together.
//
// It reproduces Pavlovic et al., "Space Odyssey — Efficient Exploration of
// Scientific Data" (ExploreDB/PODS 2016), including every baseline the
// paper evaluates against. Storage runs on a deterministic simulated disk
// (see internal/simdisk) so experiments are hardware-independent; the
// simulated clock is the reported metric.
//
// Typical use:
//
//	ex, _ := odyssey.NewExplorer(odyssey.Options{})
//	ex.AddDataset(0, objectsFromInstrumentA)
//	ex.AddDataset(1, objectsFromInstrumentB)
//	ex.AddDataset(2, objectsFromInstrumentC)
//	hits, _ := ex.Query(odyssey.Cube(odyssey.V(0.5, 0.5, 0.5), 0.01),
//		[]odyssey.DatasetID{0, 2})
package odyssey

import (
	"spaceodyssey/internal/core"
	"spaceodyssey/internal/geom"
	"spaceodyssey/internal/object"
	"spaceodyssey/internal/simdisk"
	"spaceodyssey/internal/workload"
)

// Core geometric and record types, aliased from the internal packages so
// values flow freely between the public API and the engine.
type (
	// Vec is a point in 3D space.
	Vec = geom.Vec
	// Box is a closed axis-aligned box.
	Box = geom.Box
	// Object is one spatial object (id, dataset, center, half-extent).
	Object = object.Object
	// DatasetID identifies a dataset.
	DatasetID = object.DatasetID
	// CostModel holds simulated-disk timing parameters.
	CostModel = simdisk.CostModel
	// DiskStats aggregates simulated-device activity.
	DiskStats = simdisk.Stats
	// ChannelStats snapshots one I/O channel's busy time and seek split.
	ChannelStats = simdisk.ChannelStats
	// Metrics exposes the engine's internal counters.
	Metrics = core.Metrics
	// MaintenanceStats counts the background maintenance pipeline's
	// activity (see Options.AsyncMaintenance).
	MaintenanceStats = core.MaintenanceStats
	// FaultPlan is a deterministic device fault-injection plan (see
	// Explorer.SetFaultPlan).
	FaultPlan = simdisk.FaultPlan
	// PageFault is one explicit per-file/page fault pattern of a FaultPlan.
	PageFault = simdisk.PageFault
	// FaultKind classifies an injected fault: transient, permanent, or a
	// latency spike.
	FaultKind = simdisk.FaultKind
	// RetryPolicy is the storage-read retry policy (see
	// Explorer.SetRetryPolicy).
	RetryPolicy = simdisk.RetryPolicy
	// CacheStats is the result-cache ledger (see Options.CacheResults).
	CacheStats = core.CacheStats
	// SharingStats is the scan-sharing ledger (see Options.CacheResults):
	// the reads and level-0 builds concurrent queries shared.
	SharingStats = core.SharingStats
	// Query couples a range with the datasets it targets.
	Query = workload.Query
	// MergeLevelPolicy selects the mixed-refinement-level merge strategy.
	MergeLevelPolicy = core.LevelPolicy
)

// Merge level policies (paper §3.2.5).
const (
	// MergeSameLevel merges only equal-level partitions (paper default).
	MergeSameLevel = core.SameLevel
	// MergeCoarsestCover merges at the coarsest covering cell.
	MergeCoarsestCover = core.CoarsestCover
)

// ErrCanceled is the storage stack's cancellation sentinel: every error a
// canceled or deadline-expired query returns wraps it, alongside the
// context's own error. Match with errors.Is(err, ErrCanceled) — or with
// context.Canceled / context.DeadlineExceeded, or the IsCanceled helper.
var ErrCanceled = simdisk.ErrCanceled

// Fault classification sentinels: every injected device read fault wraps
// exactly one of them. Transient faults are worth retrying (a policy set
// with Explorer.SetRetryPolicy does, automatically); permanent faults are
// not, and fail fast through every retry policy.
var (
	// ErrTransient marks a fault that may succeed on retry.
	ErrTransient = simdisk.ErrTransient
	// ErrPermanent marks a fault retries cannot fix (bad sector, dead
	// device region).
	ErrPermanent = simdisk.ErrPermanent
)

// Fault kinds for FaultPlan.Pages patterns.
const (
	// FaultTransient injects retryable read failures.
	FaultTransient = simdisk.FaultTransient
	// FaultPermanent injects unretryable read failures.
	FaultPermanent = simdisk.FaultPermanent
	// FaultSpike injects wall-clock latency spikes (reads succeed, slowly).
	FaultSpike = simdisk.FaultSpike
)

// Geometry constructors, re-exported for convenience.
var (
	// V constructs a Vec.
	V = geom.V
	// NewBox constructs a Box from min and max corners.
	NewBox = geom.NewBox
	// Cube constructs an axis-aligned cube from center and side.
	Cube = geom.Cube
	// BoxFromCenter constructs a Box from center and half-extent.
	BoxFromCenter = geom.BoxFromCenter
	// UnitBox returns [0,1]^3.
	UnitBox = geom.UnitBox
	// DefaultCostModel returns the SAS-disk cost model used by the paper's
	// experiments.
	DefaultCostModel = simdisk.DefaultCostModel
	// SSDCostModel returns an SSD-like cost model for sensitivity runs.
	SSDCostModel = simdisk.SSDCostModel
)
