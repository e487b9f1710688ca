package cluster

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

// ShardFault describes the injected crash window of one shard. The window
// is half-open — active for ordinals in [CrashAfter, CrashAfter+CrashFor).
type ShardFault struct {
	// Shard is the target shard index.
	Shard int

	// Crash window, in router query ordinals: while the router's query
	// count is inside [CrashAfter, CrashAfter+CrashFor), every sub-query
	// routed to this shard is rejected with ErrShardDown (zero charge — a
	// crashed shard does no work), and the router tries it only after every
	// live replica. CrashFor <= 0 injects no crash.
	CrashAfter, CrashFor int64
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
