package cluster

import (
	"context"
	"sync/atomic"
	"time"

	odyssey "spaceodyssey"
	"spaceodyssey/internal/simdisk"
)

// ShardState is the health state machine's verdict on one shard.
type ShardState int32

const (
	// StateUp: probes succeed. Up replicas are preferred for every
	// sub-query.
	StateUp ShardState = iota
	// StateDown: probeDownAfter consecutive probes failed (crash window,
	// manual Crash, or closed Explorer). Down replicas are tried only as a last
	// resort, so a stale verdict can delay a query but never fail one.
	StateDown
)

func (s ShardState) String() string {
	switch s {
	case StateUp:
		return "up"
	case StateDown:
		return "down"
	}
	return "unknown"
}

// shard wraps one member Explorer with its routing identity, its manual
// crash switch, and the counters the fault plan's ordinal windows consume.
type shard struct {
	id int
	ex *odyssey.Explorer
	r  *Router

	// crashed is the manual failure switch (Router.Crash/Restore); the
	// fault plan's crash windows are evaluated separately, so a restore
	// cannot cancel a planned window.
	crashed atomic.Bool

	// state is owned by the shard's prober; the router reads it when
	// ordering candidates.
	state atomic.Int32

	// serves / rejects / probes ledger the shard's traffic; transitions
	// counts the state machine's verdict changes.
	serves      atomic.Int64
	rejects     atomic.Int64
	probes      atomic.Int64
	probeErr    atomic.Int64
	transitions atomic.Int64
}

// down reports whether the shard is unable to serve right now: manually
// crashed, inside a planned crash window at query ordinal ord, or closed.
func (s *shard) down(ord int64) bool {
	return s.crashed.Load() || s.r.plan.Load().crashed(s.id, ord)
}

// serve runs one sub-query leg on this shard under a fresh charge scope.
// The returned duration is exactly the simulated time this leg charged —
// for a canceled leg, the I/O it performed before aborting — so the router
// can conserve charges across hedges without ever double-counting: two
// legs of one query can never share a scope, because serve always attaches
// a fresh foreground one.
func (s *shard) serve(ctx context.Context, q odyssey.Box, datasets []odyssey.DatasetID, ord int64) ([]odyssey.Object, time.Duration, error) {
	if s.down(ord) {
		s.rejects.Add(1)
		return nil, 0, ErrShardDown
	}
	// Slow-shard storm: the injected stall is wall clock only, charged to
	// nobody, and cut short the moment the leg's context dies (a hedge
	// winner canceling the loser mid-stall).
	if d := s.r.plan.Load().slow(s.id, ord); d > 0 {
		timer := time.NewTimer(d)
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return nil, 0, simdisk.Canceled(ctx.Err())
		}
	}
	s.serves.Add(1)
	ctx, _ = simdisk.WithOpScope(ctx, simdisk.PriForeground)
	return s.ex.QueryTimedCtx(ctx, q, datasets)
}

// probe is one health check: it fails while the shard is crashed (manual
// or planned), while the plan flaps this probe's ordinal, or once the
// Explorer is closed.
func (s *shard) probe() error {
	n := s.probes.Add(1)
	if s.r.plan.Load().flapped(s.id, n-1) {
		s.probeErr.Add(1)
		return ErrShardDown
	}
	if s.down(s.r.ord.Load()) {
		s.probeErr.Add(1)
		return ErrShardDown
	}
	if s.ex.Health().Closed {
		s.probeErr.Add(1)
		return ErrClosed
	}
	return nil
}
