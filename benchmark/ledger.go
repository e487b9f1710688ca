package main

import (
	"time"

	odyssey "spaceodyssey"
	"spaceodyssey/internal/core"
)

// ledger is one snapshot of every counter the layers already export. The
// benchmark reads counts as differences of two snapshots and never resets
// anything.
type ledger struct {
	disk    odyssey.DiskStats
	clock   time.Duration
	busy    time.Duration // summed over channels
	metrics odyssey.Metrics
	cache   odyssey.CacheStats
	share   odyssey.SharingStats
	maint   odyssey.MaintenanceStats
}

func takeLedger(ex *odyssey.Explorer) ledger {
	l := ledger{
		disk:    ex.DiskStats(),
		clock:   ex.Clock(),
		metrics: ex.Metrics(),
		cache:   ex.CacheStats(),
		share:   ex.SharingStats(),
		maint:   ex.MaintenanceStats(),
	}
	for _, dev := range ex.ChannelStats() {
		for _, ch := range dev {
			l.busy += ch.Busy
		}
	}
	return l
}

// counters are named counts, summed over passes and Explorers.
type counters map[string]float64

func (c counters) add(o counters) {
	for k, v := range o {
		c[k] += v
	}
}

// ledgerDelta is what moved between two snapshots of one Explorer.
func ledgerDelta(a, b ledger) counters {
	rel := func(r core.Relation) float64 {
		return float64(b.metrics.RelationCounts[r] - a.metrics.RelationCounts[r])
	}
	return counters{
		"queries": float64(b.metrics.Queries - a.metrics.Queries),

		"clock_ns":         float64(b.clock - a.clock),
		"busy_ns":          float64(b.busy - a.busy),
		"queued_ns":        float64(b.disk.QueuedDelay - a.disk.QueuedDelay),
		"page_reads":       float64(b.disk.PageReads - a.disk.PageReads),
		"page_writes":      float64(b.disk.PageWrites - a.disk.PageWrites),
		"cache_hits":       float64(b.disk.CacheHits - a.disk.CacheHits),
		"seeks":            float64(b.disk.Seeks - a.disk.Seeks),
		"seq_pages":        float64(b.disk.SeqPages - a.disk.SeqPages),
		"coalesced_reads":  float64(b.disk.CoalescedReads - a.disk.CoalescedReads),
		"coalesced_pages":  float64(b.disk.CoalescedPages - a.disk.CoalescedPages),
		"transient_faults": float64(b.disk.TransientFaults - a.disk.TransientFaults),
		"retried_ops":      float64(b.disk.RetriedOps - a.disk.RetriedOps),
		"retry_exhausted":  float64(b.disk.RetryExhausted - a.disk.RetryExhausted),

		"rel_none":          rel(core.RelNone),
		"rel_exact":         rel(core.RelExact),
		"rel_partial":       rel(core.RelSuperset) + rel(core.RelSubset),
		"parts_tree":        float64(b.metrics.PartitionsFromTree - a.metrics.PartitionsFromTree),
		"parts_merge":       float64(b.metrics.PartitionsFromMerge - a.metrics.PartitionsFromMerge),
		"refinements":       float64(b.metrics.Refinements - a.metrics.Refinements),
		"trees_built":       float64(b.metrics.TreesBuilt - a.metrics.TreesBuilt),
		"partitions_merged": float64(b.metrics.PartitionsMerged - a.metrics.PartitionsMerged),
		"merge_evictions":   float64(b.metrics.MergeEvictions - a.metrics.MergeEvictions),
		"ph_build_ns":       float64(b.metrics.Phases.LevelZeroBuild - a.metrics.Phases.LevelZeroBuild),
		"ph_refine_ns":      float64(b.metrics.Phases.Refinement - a.metrics.Phases.Refinement),
		"ph_tree_read_ns":   float64(b.metrics.Phases.TreeReads - a.metrics.Phases.TreeReads),
		"ph_merge_read_ns":  float64(b.metrics.Phases.MergeReads - a.metrics.Phases.MergeReads),
		"ph_merge_write_ns": float64(b.metrics.Phases.MergeWrites - a.metrics.Phases.MergeWrites),

		"rc_hits":          float64(b.cache.Hits - a.cache.Hits),
		"rc_containment":   float64(b.cache.ContainmentHits - a.cache.ContainmentHits),
		"rc_misses":        float64(b.cache.Misses - a.cache.Misses),
		"rc_evictions":     float64(b.cache.Evictions - a.cache.Evictions),
		"rc_invalidations": float64(b.cache.Invalidations - a.cache.Invalidations),
		"rc_zero_read":     float64(b.cache.ZeroReadQueries - a.cache.ZeroReadQueries),

		"share_attached": float64(b.share.AttachedScans - a.share.AttachedScans),
		"share_builds":   float64(b.share.SharedBuilds - a.share.SharedBuilds),

		"maint_completed": float64(b.maint.Completed - a.maint.Completed),
		"maint_coalesced": float64(b.maint.Coalesced - a.maint.Coalesced),
		"maint_failed":    float64(b.maint.Failed - a.maint.Failed),
	}
}

// gauges are the ledger's level readings, which have no meaningful
// difference.
func (l ledger) gauges() counters {
	return counters{
		"rc_capacity":           float64(l.cache.Capacity),
		"maint_queue_highwater": float64(l.maint.QueueDepthHighWater),
	}
}
