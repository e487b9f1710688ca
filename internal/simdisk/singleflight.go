package simdisk

import (
	"context"
)

// inflightRun is one registered device run read other readers may attach to.
// The leader fills buf/dt/err and closes done after its whole read —
// including the aggregated real-time emulation sleep — so an attached reader
// that returns has genuinely waited out the device latency it shares.
type inflightRun struct {
	start, n int64
	done     chan struct{}
	buf      []byte
	err      error
}

// SetShareReads turns single-flight run coalescing on or off. With sharing
// on, concurrent ReadRunCtx calls whose page ranges overlap on the same file
// coalesce: one reader (the leader) performs and is charged the physical
// read, every other reader whose range the leader's covers attaches to it
// and receives its slice of the same buffer — no platter charge, no cache
// traffic, counted in Stats.CoalescedReads/CoalescedPages. Off (the default)
// every read is independent, bit-for-bit the original model.
func (d *Device) SetShareReads(share bool) {
	d.shareReads.Store(share)
}

// WaitDone blocks until ch closes or ctx is canceled (a nil ctx never is),
// returning the wrapped cancellation error in the latter case. It is the
// attach-side wait every single-flight layer (device run coalescing here,
// the engine's scan registry and build flights above) shares.
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

// readRunShared is the coalescing read path behind SetShareReads(true). A
// reader whose range is covered by an in-flight leader attaches and waits;
// otherwise it registers itself as the leader for its own range, performs
// the read, and fans the buffer out. Attachment is zero-copy: the returned
// slice may alias the leader's buffer, which callers must treat as
// read-only (every caller in this repository decodes out of it and drops
// it, never writes into it).
//
// When a leader fails (fault injection, cancellation, a concurrent delete),
// its waiters do not each fall back to an independent readRunDirect — N
// waiters would charge N redundant reads, a thundering herd on the device.
// Instead each waiter loops back through the coalescing path: the failed
// leader deregistered its run before publishing, so the first waiter back
// through the registry becomes the one new leader (charged once) and the
// rest attach to it. failed remembers the run whose error was just
// observed so a stale registration can never be re-attached.
func (d *Device) readRunShared(ctx context.Context, id FileID, start, n int64) ([]byte, error) {
	var failed *inflightRun
	for {
		d.sfMu.Lock()
		var attach *inflightRun
		for _, fl := range d.sfInflight[id] {
			if fl != failed && fl.start <= start && start+n <= fl.start+fl.n {
				attach = fl
				break
			}
		}
		if attach == nil {
			fl := &inflightRun{start: start, n: n, done: make(chan struct{})}
			d.sfInflight[id] = append(d.sfInflight[id], fl)
			d.sfMu.Unlock()

			fl.buf, fl.err = d.readRunDirect(ctx, id, start, n)

			// Deregister before publishing so waiters that observe the
			// error re-enter a registry this run is gone from — their retry
			// single-flights instead of re-attaching to a dead run.
			d.sfMu.Lock()
			runs := d.sfInflight[id]
			for i, f := range runs {
				if f == fl {
					runs[i] = runs[len(runs)-1]
					runs = runs[:len(runs)-1]
					break
				}
			}
			if len(runs) == 0 {
				delete(d.sfInflight, id)
			} else {
				d.sfInflight[id] = runs
			}
			d.sfMu.Unlock()
			close(fl.done)
			return fl.buf, fl.err
		}
		d.sfMu.Unlock()
		if err := WaitDone(ctx, attach.done); err != nil {
			d.canceledOps.Add(1)
			return nil, err
		}
		if attach.err != nil {
			// The leader failed; its outcome is not ours. Re-enter the
			// coalescing path: exactly one waiter is charged the retry.
			failed = attach
			continue
		}
		d.coalescedReads.Add(1)
		d.coalescedPages.Add(n)
		off := (start - attach.start) * PageSize
		return attach.buf[off : off+n*PageSize : off+n*PageSize], nil
	}
}

// SetShareReads fans the coalescing switch out to every member device.
// Coalescing is per member: an array never merges reads across spindles,
// because there is no shared head to save.
func (a *DeviceArray) SetShareReads(share bool) {
	for _, m := range a.members {
		m.SetShareReads(share)
	}
}
