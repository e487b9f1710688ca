package simdisk

import (
	"context"
	"sync/atomic"
	"time"
)

// Priority labels the work an OpScope is opened for: the maintenance
// scheduler opens its scopes PriMaintenance, everything else PriForeground.
// It is a label only: both classes queue behind earlier operations on their
// channel and are charged the arrival-gated delay they actually wait, and a
// scope's charges are its own whatever its class.
type Priority uint8

const (
	// PriForeground is the default class: interactive query I/O.
	PriForeground Priority = iota
	// PriMaintenance marks background layout maintenance (refinement and
	// merge I/O).
	PriMaintenance
)

// OpScope accumulates the exact simulated cost of one logical unit of work
// (one query, one maintenance task) across every device operation its
// context performs. The arrival-aware channel model makes the attribution
// exact on any topology: every platter charge lands on at most one scope,
// so the per-scope Charged() durations of concurrent queries sum to the
// total device busy time (nothing double-counted, nothing lost), and
// Queued() is precisely the arrival-gated delay this scope's operations
// spent waiting behind earlier operations on their channels.
//
// A scope carries a virtual arrival frontier: its first platter access
// arrives exactly when its channel can serve it (no delay — the scope
// enters the simulated timeline there), and every subsequent operation
// arrives where the previous one completed, so a scope that hops onto a
// channel another scope has pushed ahead is charged the wait, exactly as a
// request queueing behind a busy head would be.
type OpScope struct {
	// now is the scope's virtual timeline position in simulated nanoseconds
	// (same epoch as the channel busy clocks): the arrival time of its next
	// operation. -1 until the first operation positions the scope.
	now atomic.Int64

	charged atomic.Int64 // platter service time (seek + transfer)
	shared  atomic.Int64 // cache-hit (and other shared-clock) time
	queued  atomic.Int64 // arrival-gated queueing delay
}

// NewOpScope creates an unattached scope; the priority only labels it (see
// Priority). Most callers want WithOpScope, which also attaches it to a
// context.
func NewOpScope(Priority) *OpScope {
	s := &OpScope{}
	s.now.Store(-1)
	return s
}

// opScopeKey keys the scope in a context.
type opScopeKey struct{}

// WithOpScope attaches a fresh OpScope of the given priority to ctx (a nil
// ctx counts as context.Background()) and returns both. Device operations
// performed with the returned context are attributed to the scope.
func WithOpScope(ctx context.Context, pri Priority) (context.Context, *OpScope) {
	s := NewOpScope(pri)
	return context.WithValue(orBackground(ctx), opScopeKey{}, s), s
}

// Detach returns a context that is never canceled but keeps ctx's values,
// for work that must run to completion once begun (a layout mutation, the
// merge step a query triggers) and is still charged to ctx's scope. It is
// context.WithoutCancel with the scope re-attached on top: a value lookup
// that reaches a WithoutCancel context boxes it on the heap, and ScopeFrom
// runs once per page operation, so the scope must be found before that
// layer. Detaching costs two allocations; the page operations under it none.
func Detach(ctx context.Context) context.Context {
	ctx = orBackground(ctx)
	return context.WithValue(context.WithoutCancel(ctx), opScopeKey{}, ScopeFrom(ctx))
}

// ScopeFrom returns the OpScope attached to ctx, or nil.
func ScopeFrom(ctx context.Context) *OpScope {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(opScopeKey{}).(*OpScope)
	return s
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

// Total returns the scope's complete simulated latency: service time plus
// shared time plus queueing delay. On a serial single-channel workload this
// is bit-for-bit the clock delta of the original single-head model.
func (s *OpScope) Total() time.Duration {
	return time.Duration(s.charged.Load() + s.shared.Load() + s.queued.Load())
}

// noteShared attributes a shared-clock charge (cache hit) to the scope and
// advances its virtual timeline by it. Safe on a nil scope (unattributed
// operation): a no-op.
func (s *OpScope) noteShared(dt time.Duration) {
	if s == nil {
		return
	}
	s.shared.Add(int64(dt))
	for {
		old := s.now.Load()
		if old < 0 {
			return // not yet positioned; the first platter access positions it
		}
		if s.now.CompareAndSwap(old, old+int64(dt)) {
			return
		}
	}
}

// PhaseReader is the clock phase attribution differences: the scope's exact
// Total when the context carried one, the device clock otherwise (the
// single-stream fallback, exact on C=1 D=1). Callers take a reading before
// and after a phase and record the difference. It is a plain value: taking
// one allocates nothing, and a query takes four.
type PhaseReader struct {
	scope *OpScope
	dev   Clocker
}

// PhaseClock resolves ctx's scope once and returns the clock to read phases
// on.
func PhaseClock(ctx context.Context, dev Clocker) PhaseReader {
	return PhaseReader{scope: ScopeFrom(ctx), dev: dev}
}

// Now reads the clock.
func (c PhaseReader) Now() time.Duration {
	if c.scope != nil {
		return c.scope.Total()
	}
	return c.dev.Clock()
}
