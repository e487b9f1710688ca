package simdisk

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// ErrCanceled is the sentinel every cancellation failure on the device
// wraps. Errors returned for an expired or canceled context satisfy both
// errors.Is(err, ErrCanceled) and errors.Is(err, ctx.Err()) — callers can
// match on the device-level sentinel or on context.Canceled /
// context.DeadlineExceeded interchangeably.
var ErrCanceled = errors.New("simdisk: operation canceled")

// cancelErr couples ErrCanceled with the context cause that triggered it.
type cancelErr struct{ cause error }

func (e *cancelErr) Error() string { return "simdisk: operation canceled: " + e.cause.Error() }

func (e *cancelErr) Is(target error) bool { return target == ErrCanceled }

func (e *cancelErr) Unwrap() error { return e.cause }

// Canceled wraps a context cause into the device's cancellation error. A nil
// cause defaults to context.Canceled.
func Canceled(cause error) error {
	if cause == nil {
		cause = context.Canceled
	}
	return &cancelErr{cause: cause}
}

// CheckCtx returns nil when ctx is nil or still live, and the wrapped
// cancellation error otherwise. Layers above the device use it to check
// cancellation between their own steps (tree leaves, merge segments) with
// the same error shape the device produces. It never touches the device
// counters — only operations the device itself aborts count as canceled ops.
func CheckCtx(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return Canceled(err)
	}
	return nil
}

// orBackground is the input check of the exported entry points that accept
// a nil context: everything behind them sees a real one.
func orBackground(ctx context.Context) context.Context {
	if ctx == nil {
		return context.Background()
	}
	return ctx
}

// checkCtx is the device-side cancellation gate: like CheckCtx, but a hit
// also counts one canceled operation in the device stats.
func (d *Device) checkCtx(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		d.canceledOps.Add(1)
		return Canceled(err)
	}
	return nil
}

// WaitDone blocks until ch closes or ctx is canceled (a nil ctx never is),
// returning the wrapped cancellation error in the latter case. It is the
// attach-side wait of the engine's single-flight (core.flightGroup) and of
// its maintenance quiesce: the waiter's error has the device's shape.
func WaitDone(ctx context.Context, ch <-chan struct{}) error {
	ctx = orBackground(ctx)
	// ctx.Done() may be nil (context.Background()); a nil channel case is
	// simply never ready.
	select {
	case <-ch:
		return nil
	case <-ctx.Done():
		return Canceled(ctx.Err())
	}
}

// sleepCtx waits dt of wall-clock time (a real-time emulation sleep, a retry
// backoff), aborting early with the wrapped cancellation error when ctx is
// canceled. The device counts such an abort as a canceled op, like any other.
func sleepCtx(ctx context.Context, dt time.Duration) error {
	timer := time.NewTimer(dt)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return Canceled(ctx.Err())
	}
}

// ReadPageCtx reads page idx of file id into buf (see readPage for the
// charge): a context that is already done aborts before any clock charge,
// and the real-time emulation sleep (if any) aborts early on ctx.Done.
func (d *Device) ReadPageCtx(ctx context.Context, id FileID, idx int64, buf []byte) error {
	ctx = orBackground(ctx)
	dt, err := d.readPageRetry(ctx, id, idx, buf)
	if err != nil {
		return err
	}
	return d.emulateCtx(ctx, dt)
}

// ReadRunCtx reads n consecutive pages starting at start into a single
// buffer of n*PageSize bytes. It is the sequential-scan primitive partitions
// and merge files use. Real-time emulation sleeps once for the whole run,
// not per page, so OS sleep granularity does not inflate sequential scans.
// The context is checked before every page, so an abort stops charging at
// the page boundary it was observed: pages already read stay charged to the
// simulated clock (that I/O really happened), pages after the abort are
// never charged. The aggregated real-time sleep is skipped on abort — the
// caller is abandoning the query, so emulating the latency of work it no
// longer waits for would only hold the worker hostage.
//
// The buffer comes from a pool and belongs to the caller, who may hand it
// back with PutRunBuf once decoded; on every error path it goes back here
// and the result is nil.
func (d *Device) ReadRunCtx(ctx context.Context, id FileID, start, n int64) ([]byte, error) {
	if n < 0 {
		return nil, fmt.Errorf("simdisk: negative run length %d", n)
	}
	ctx = orBackground(ctx)
	buf := getRunBuf(n)
	var total time.Duration
	for i := int64(0); i < n; i++ {
		dt, err := d.readPageRetry(ctx, id, start+i, buf[i*PageSize:(i+1)*PageSize])
		if err != nil {
			PutRunBuf(buf)
			return nil, err
		}
		total += dt
	}
	if err := d.emulateCtx(ctx, total); err != nil {
		PutRunBuf(buf)
		return nil, err
	}
	return buf, nil
}

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
