package odyssey

// Health is the Explorer's unified health snapshot: the maintenance
// pipeline's health ledger and the device-level fault/retry counters, in
// one call. Health checkers (the cluster router's shard probes) read it
// instead of stitching ledgers together; the individual accessors
// (MaintenanceHealth, DiskStats) remain as thin views over the same state.
type Health struct {
	// Maintenance is the background maintenance pipeline's health ledger:
	// bounded failure history, quarantine list, pending retries.
	Maintenance MaintenanceHealth
	// Device-level fault and retry counters, summed across every member
	// device (the fault-relevant subset of DiskStats).
	TransientFaults int64
	PermanentFaults int64
	LatencySpikes   int64
	RetriedOps      int64
	RetryExhausted  int64
	// Closed reports whether Close has been called; inspection keeps
	// working on a closed Explorer, serving does not.
	Closed bool
}

// Health returns the unified health snapshot. Safe to call concurrently
// with queries and on a closed Explorer.
func (e *Explorer) Health() Health {
	ds := e.dev.Stats()
	return Health{
		Maintenance:     e.engine.MaintenanceHealth(),
		TransientFaults: ds.TransientFaults,
		PermanentFaults: ds.PermanentFaults,
		LatencySpikes:   ds.LatencySpikes,
		RetriedOps:      ds.RetriedOps,
		RetryExhausted:  ds.RetryExhausted,
		Closed:          e.closed.Load(),
	}
}
