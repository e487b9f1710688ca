package cluster

import (
	"context"
	"sync/atomic"
	"time"

	odyssey "spaceodyssey"
	"spaceodyssey/internal/simdisk"
)

// shard wraps one member Explorer with its routing identity and the count
// of sub-queries it rejected while down.
type shard struct {
	id int
	ex *odyssey.Explorer
	r  *Router

	rejects atomic.Int64
}

// down reports whether the shard is inside a planned crash window at query
// ordinal ord. It is the router's one health signal — read, not sampled, so
// a query's routing is a function of the plan, the placement and its
// ordinal alone.
func (s *shard) down(ord int64) bool {
	return s.r.plan.Load().crashed(s.id, ord)
}

// serve runs one sub-query leg on this shard under a fresh charge scope.
// The returned duration is exactly the simulated time this leg charged —
// for a failed or canceled leg, the I/O it performed before aborting — so
// the router books every leg's charge once, as served or as wasted.
func (s *shard) serve(ctx context.Context, q odyssey.Box, datasets []odyssey.DatasetID, ord int64) ([]odyssey.Object, time.Duration, error) {
	if s.down(ord) {
		s.rejects.Add(1)
		return nil, 0, ErrShardDown
	}
	ctx, _ = simdisk.WithOpScope(ctx, simdisk.PriForeground)
	return s.ex.QueryTimedCtx(ctx, q, datasets)
}
