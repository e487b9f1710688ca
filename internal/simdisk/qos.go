package simdisk

import (
	"context"
	"math"
	"sync/atomic"
	"time"
)

// Priority classifies a device operation for QoS purposes. It rides on the
// operation's context inside an OpScope: the maintenance scheduler tags its
// background I/O PriMaintenance, and everything else is PriForeground.
type Priority uint8

const (
	// PriForeground is the default class: interactive query I/O. It queues
	// behind earlier operations on the same channel and is charged the
	// arrival-gated queueing delay it actually waits.
	PriForeground Priority = iota
	// PriMaintenance marks background layout maintenance (refinement and
	// merge I/O). It queues like foreground work, but when a maintenance
	// I/O budget is set (SetMaintenanceBudget) its platter operations
	// additionally wait — in wall-clock time only, never on the simulated
	// clock — while foreground operations are in flight and maintenance
	// exceeds its busy-time share.
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
	pri Priority

	// now is the scope's virtual timeline position in simulated nanoseconds
	// (same epoch as the channel busy clocks): the arrival time of its next
	// operation. -1 until the first operation positions the scope.
	now atomic.Int64

	charged atomic.Int64 // platter service time (seek + transfer)
	shared  atomic.Int64 // cache-hit (and other shared-clock) time
	queued  atomic.Int64 // arrival-gated queueing delay
}

// NewOpScope creates an unattached scope of the given priority. Most
// callers want WithOpScope, which also attaches it to a context.
func NewOpScope(pri Priority) *OpScope {
	s := &OpScope{pri: pri}
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

// SetMaintenanceBudget sets the background I/O budget: the maximum fraction
// of platter busy time maintenance operations may consume while foreground
// operations are in flight. With a budget in (0, 1), a PriMaintenance
// platter operation whose class is over its share waits — in wall-clock
// time only — until the foreground goes idle or the share drops. frac <= 0
// (the default) or >= 1 disables throttling. The simulated clock, charges
// and results are identical either way; only wall-clock scheduling changes.
func (d *Device) SetMaintenanceBudget(frac float64) {
	if frac <= 0 || math.IsNaN(frac) {
		d.maintBudget.Store(0)
		return
	}
	d.maintBudget.Store(math.Float64bits(frac))
}

// MaintenanceBudget returns the current background I/O budget (0 = off).
func (d *Device) MaintenanceBudget() float64 {
	bits := d.maintBudget.Load()
	if bits == 0 {
		return 0
	}
	return math.Float64frombits(bits)
}

// SetMaintenanceBudget fans the background I/O budget out to every member;
// throttling is per member, matching the per-member foreground in-flight
// accounting.
func (a *DeviceArray) SetMaintenanceBudget(frac float64) {
	for _, m := range a.members {
		m.SetMaintenanceBudget(frac)
	}
}

// MaintenanceBudget returns the members' common budget.
func (a *DeviceArray) MaintenanceBudget() float64 { return a.members[0].MaintenanceBudget() }

// gateOp is the QoS entry gate every page I/O operation passes: foreground
// scoped operations register as in flight — the signal the
// maintenance throttle watches. Maintenance operations pass freely: the
// budget wait happens at task boundaries (AwaitMaintenanceTurn), never
// mid-operation, because a maintenance step may be holding an engine lock
// (a tree's write lock during refinement) and pausing it there would block
// the very foreground queries the budget protects. The matching ungateOp
// must be called when the operation (including its real-time emulation
// sleep) finishes.
func (d *Device) gateOp(s *OpScope) {
	if s != nil && s.pri != PriMaintenance {
		d.fgInFlight.Add(1)
	}
}

// ungateOp undoes gateOp's in-flight registration.
func (d *Device) ungateOp(s *OpScope) {
	if s != nil && s.pri != PriMaintenance {
		d.fgInFlight.Add(-1)
	}
}

// AwaitMaintenanceTurn blocks — wall-clock only — while foreground
// operations are in flight and maintenance platter time exceeds its
// budgeted share (see SetMaintenanceBudget). Maintenance schedulers call it
// at task boundaries, BEFORE acquiring engine locks: the wait must happen at
// a lock-free point, or throttling would extend lock holds and invert
// priorities. The wait never touches the simulated clock, so results and
// charges are byte-identical with throttling on or off; it only reorders
// wall-clock execution so background I/O yields the device to interactive
// queries. Returns a cancellation error when ctx dies mid-wait; immediate
// when no budget is set.
func (d *Device) AwaitMaintenanceTurn(ctx context.Context) error {
	bits := d.maintBudget.Load()
	if bits == 0 {
		return nil
	}
	frac := math.Float64frombits(bits)
	if frac >= 1 {
		return nil
	}
	waited := false
	for d.fgInFlight.Load() > 0 && !d.closed.Load() {
		mb, fb := d.maintBusy.Load(), d.fgBusy.Load()
		if float64(mb) <= frac*float64(mb+fb) {
			break // within budget: proceed even under foreground load
		}
		if err := d.checkCtx(ctx); err != nil {
			return err
		}
		if !waited {
			waited = true
			d.throttledOps.Add(1)
		}
		time.Sleep(50 * time.Microsecond)
	}
	return nil
}

// AwaitMaintenanceTurn waits for every member's turn: a maintenance task
// may touch files on any member, so it proceeds when all members are
// within budget (each member's wait is independent and self-limiting — a
// gated class stops accruing busy time, so its share only falls).
func (a *DeviceArray) AwaitMaintenanceTurn(ctx context.Context) error {
	for _, m := range a.members {
		if err := m.AwaitMaintenanceTurn(ctx); err != nil {
			return err
		}
	}
	return nil
}
