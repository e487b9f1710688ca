package simdisk

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// RetryPolicy bounds how hard the device's page-read path works to survive
// transient faults. Retries are wall-clock only: a faulted read attempt was
// rejected before any cache touch or platter charge, so the simulated clock
// and every OpScope see exactly the I/O that actually happened — the one
// successful read, or nothing. Only transient faults (errors.Is(err,
// ErrTransient)) are retried; permanent faults, cancellations and structural
// errors fail fast. The zero policy disables retrying entirely.
type RetryPolicy struct {
	// MaxAttempts is the total number of read attempts per page, including
	// the first. Values <= 1 disable retrying.
	MaxAttempts int
	// Backoff is the wall-clock sleep before the first retry, doubling on
	// each subsequent one. Zero retries immediately.
	Backoff time.Duration
	// Budget caps the cumulative backoff slept per page read; once the next
	// sleep would exceed it the read fails with the last fault (ledgered in
	// Stats.RetryExhausted). Zero means no cap.
	Budget time.Duration
}

func (p RetryPolicy) enabled() bool { return p.MaxAttempts > 1 }

// SetRetryPolicy installs the device's page-read retry policy. Safe to call
// concurrently with reads; in-flight reads may finish under the old policy.
func (d *Device) SetRetryPolicy(p RetryPolicy) {
	d.retry.Store(&p)
}

// RetryPolicy returns the current page-read retry policy.
func (d *Device) RetryPolicy() RetryPolicy {
	if p := d.retry.Load(); p != nil {
		return *p
	}
	return RetryPolicy{}
}

// SetRetryPolicy fans the policy out to every member.
func (a *DeviceArray) SetRetryPolicy(p RetryPolicy) {
	for _, m := range a.members {
		m.SetRetryPolicy(p)
	}
}

// RetryPolicy returns the members' common retry policy.
func (a *DeviceArray) RetryPolicy() RetryPolicy { return a.members[0].RetryPolicy() }

// readPageRetry is readPage wrapped in the retry policy: transient faults
// are retried with exponential wall-clock backoff until they clear, attempts
// run out, or the backoff budget is exhausted. Every retry attempt is
// counted in Stats.RetriedOps; a read that still fails after its last
// attempt (or that the budget cuts off) counts once in Stats.RetryExhausted.
// Backoff sleeps abort on ctx cancellation, returning an error that matches
// both ErrCanceled and the fault being retried.
func (d *Device) readPageRetry(ctx context.Context, id FileID, idx int64, buf []byte) (time.Duration, error) {
	dt, err := d.readPage(ctx, id, idx, buf)
	if err == nil || !errors.Is(err, ErrTransient) {
		return dt, err
	}
	p := d.RetryPolicy()
	if !p.enabled() {
		return 0, err
	}
	backoff := p.Backoff
	var slept time.Duration
	for attempt := 2; attempt <= p.MaxAttempts; attempt++ {
		if backoff > 0 {
			if p.Budget > 0 && slept+backoff > p.Budget {
				d.retryExhausted.Add(1)
				return 0, fmt.Errorf("simdisk: retry budget %v exhausted after %d attempts: %w", p.Budget, attempt-1, err)
			}
			if serr := d.sleepCtx(ctx, backoff); serr != nil {
				return 0, fmt.Errorf("%w (while backing off from %w)", serr, err)
			}
			slept += backoff
			backoff *= 2
		}
		d.retriedOps.Add(1)
		dt, err = d.readPage(ctx, id, idx, buf)
		if err == nil || !errors.Is(err, ErrTransient) {
			return dt, err
		}
	}
	d.retryExhausted.Add(1)
	return 0, fmt.Errorf("simdisk: %d read attempts failed: %w", p.MaxAttempts, err)
}
