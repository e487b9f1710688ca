package simdisk

import (
	"context"
	"time"
)

// Probes the package's tests read the device through. Nothing outside tests
// needs them, so they live here.

// TotalPages returns the number of pages across all files (disk usage).
func (d *Device) TotalPages() int64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	var total int64
	for _, f := range d.files {
		f.mu.RLock()
		total += int64(len(f.pages))
		f.mu.RUnlock()
	}
	return total
}

// MemberOf returns the index of the member device holding id.
func (a *DeviceArray) MemberOf(id FileID) int {
	return int(uint32(id) % uint32(len(a.members)))
}

// FaultPlanActive reports whether a fault plan is currently installed.
func (d *Device) FaultPlanActive() bool {
	d.faultMu.Lock()
	defer d.faultMu.Unlock()
	return d.faults != nil
}

// Charged returns the platter service time (seeks + transfers) attributed
// to this scope. Concurrent scopes' Charged durations sum exactly to the
// device's total busy time.
func (s *OpScope) Charged() time.Duration { return time.Duration(s.charged.Load()) }

// Shared returns the shared-clock time (cache hits) attributed to this
// scope.
func (s *OpScope) Shared() time.Duration { return time.Duration(s.shared.Load()) }

// Queued returns the arrival-gated queueing delay this scope's operations
// waited behind earlier operations on their channels. Always zero on
// single-stream serial workloads.
func (s *OpScope) Queued() time.Duration { return time.Duration(s.queued.Load()) }

// clockLimitCtx is a Context that reports itself expired once a Device's
// simulated clock reaches a limit. See WithClockLimit.
type clockLimitCtx struct {
	context.Context
	dev   Clocker
	limit time.Duration
}

// WithClockLimit derives a context that expires when dev's simulated clock
// reaches limit (an absolute clock value, not a delta). Expiry is observed
// by polling Err — which is exactly what the device's cancellation gates do
// between charges — so cancellation lands deterministically on a charge
// boundary regardless of wall-clock scheduling. This is the simulated-world
// analogue of context.WithDeadline and the tool the deterministic
// cancellation tests are built on.
//
// Limitations: Done still returns the parent's channel (the simulated clock
// has no goroutine watching it), so select-based waiters — including the
// device's real-time emulation sleeps — only observe the parent's
// cancellation, not the clock limit. For the same reason the limit does not
// survive derivation: a context derived from this one (context.WithCancel,
// WithTimeout) consults only its own state and the parent's Done channel,
// never this Err override, so pass a clock-limited context directly to the
// query APIs rather than wrapping it further. Use real deadlines for
// wall-clock control; use WithClockLimit for deterministic simulated budgets.
func WithClockLimit(parent context.Context, dev Clocker, limit time.Duration) context.Context {
	return &clockLimitCtx{Context: orBackground(parent), dev: dev, limit: limit}
}

func (c *clockLimitCtx) Err() error {
	if err := c.Context.Err(); err != nil {
		return err
	}
	if c.dev.Clock() >= c.limit {
		return context.DeadlineExceeded
	}
	return nil
}

// Len returns the cached page count across shards.
func (c *shardedCache) Len() int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += s.lru.Len()
		s.mu.Unlock()
	}
	return n
}

// Len returns the number of cached pages.
func (c *lruCache) Len() int { return len(c.slots) }
