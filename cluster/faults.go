package cluster

import "time"

// ShardFaultPlan is the shard-level fault-injection plan — the device
// FaultPlan's discipline promoted one fault domain up. It is fully
// deterministic: every window is expressed in router query ordinals, never
// in wall-clock time, so the same workload replayed through the same plan
// sees exactly the same faults. Install it with Router.SetShardFaultPlan;
// the zero plan injects nothing.
type ShardFaultPlan struct {
	// Faults is the list of injected shard faults; multiple entries may
	// target the same shard.
	Faults []ShardFault
}

// ShardFault describes the injected failure modes of one shard. Each
// window is half-open — active for ordinals in [After, After+For).
type ShardFault struct {
	// Shard is the target shard index.
	Shard int

	// Crash window, in router query ordinals: while the router's query
	// count is inside [CrashAfter, CrashAfter+CrashFor), every sub-query
	// routed to this shard is rejected with ErrShardDown (zero charge — a
	// crashed shard does no work), and the router tries it only after every
	// live replica. CrashFor <= 0 injects no crash.
	CrashAfter, CrashFor int64

	// Slow-shard storm, in router query ordinals: while the query count is
	// inside [SlowAfter, SlowAfter+SlowFor), every sub-query served by this
	// shard first sleeps SlowDelay of wall-clock time (canceled early if
	// the sub-query's context dies — a hedge winner cuts the sleeping
	// loser short). The delay is pure wall clock: simulated charges and
	// query results are untouched. SlowFor <= 0 or SlowDelay <= 0 injects
	// no storm.
	SlowAfter, SlowFor int64
	SlowDelay          time.Duration
}

// crashed reports whether shard is inside a crash window at query ordinal
// ord.
func (p *ShardFaultPlan) crashed(shard int, ord int64) bool {
	if p == nil {
		return false
	}
	for _, f := range p.Faults {
		if f.Shard == shard && f.CrashFor > 0 &&
			ord >= f.CrashAfter && ord < f.CrashAfter+f.CrashFor {
			return true
		}
	}
	return false
}

// slow returns the injected wall-clock delay for a sub-query served by
// shard at query ordinal ord (0 when outside every storm window).
func (p *ShardFaultPlan) slow(shard int, ord int64) time.Duration {
	if p == nil {
		return 0
	}
	for _, f := range p.Faults {
		if f.Shard == shard && f.SlowFor > 0 && f.SlowDelay > 0 &&
			ord >= f.SlowAfter && ord < f.SlowAfter+f.SlowFor {
			return f.SlowDelay
		}
	}
	return 0
}
