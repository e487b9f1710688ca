package simdisk

import (
	"context"
	"errors"
	"testing"
	"time"
)

// cancelTestDevice builds a cacheless device (every read is a platter
// access with a known charge) holding one file of the given page count.
// After the appends the platter head sits at the file's last page, so the
// first read of page 0 pays a seek and subsequent pages are sequential.
func cancelTestDevice(t *testing.T, pages int64) (*Device, FileID, CostModel) {
	t.Helper()
	cost := CostModel{Seek: time.Millisecond, Transfer: 100 * time.Microsecond, CacheHit: time.Microsecond}
	d := NewDeviceChannels(cost, 0, 1)
	id := d.CreateFileInGroup("cancel-test", "")
	page := make([]byte, PageSize)
	for i := int64(0); i < pages; i++ {
		page[0] = byte(i + 1) // every page differs: wantRunBytes compares them
		if _, err := d.AppendPageCtx(context.Background(), id, page); err != nil {
			t.Fatal(err)
		}
	}
	return d, id, cost
}

// wantCanceled asserts err wraps both the device sentinel and the given
// context cause.
func wantCanceled(t *testing.T, err, cause error) {
	t.Helper()
	if err == nil {
		t.Fatal("expected a cancellation error, got nil")
	}
	if !errors.Is(err, ErrCanceled) {
		t.Errorf("error %v does not wrap ErrCanceled", err)
	}
	if !errors.Is(err, cause) {
		t.Errorf("error %v does not wrap context cause %v", err, cause)
	}
}

// TestCancelPreCanceledChargesZeroClock: an operation under an already-dead
// context must abort before charging anything — zero clock movement, zero
// platter reads, one canceled op per aborted operation.
func TestCancelPreCanceledChargesZeroClock(t *testing.T) {
	d, id, _ := cancelTestDevice(t, 8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	clock0 := d.Clock()
	st0 := d.Stats()
	buf := make([]byte, PageSize)
	wantCanceled(t, d.ReadPageCtx(ctx, id, 0, buf), context.Canceled)
	_, err := d.ReadRunCtx(ctx, id, 0, 8)
	wantCanceled(t, err, context.Canceled)

	if got := d.Clock(); got != clock0 {
		t.Errorf("pre-canceled ops moved the clock by %v", got-clock0)
	}
	st := d.Stats()
	if st.PageReads != st0.PageReads {
		t.Errorf("pre-canceled ops performed %d platter reads", st.PageReads-st0.PageReads)
	}
	if got, want := st.CanceledOps-st0.CanceledOps, int64(2); got != want {
		t.Errorf("CanceledOps delta = %d, want %d", got, want)
	}
}

// TestCancelMidRunStopsAtPageBoundary: a context that expires mid-ReadRun
// (deterministically, via the simulated-clock limit) stops charging at the
// exact page boundary where the abort was observed — the pages already read
// stay charged, nothing after them is.
func TestCancelMidRunStopsAtPageBoundary(t *testing.T) {
	d, id, cost := cancelTestDevice(t, 8)
	clock0 := d.Clock()
	st0 := d.Stats()

	// Page 0 pays Seek+Transfer (head parked at EOF after the appends),
	// pages 1.. pay Transfer each. The limit lands exactly at the clock
	// value after 3 pages, so the gate before page 3 observes expiry.
	limit := clock0 + cost.Seek + 3*cost.Transfer
	ctx := WithClockLimit(context.Background(), d, limit)
	buf, err := d.ReadRunCtx(ctx, id, 0, 8)
	wantCanceled(t, err, context.DeadlineExceeded)
	if buf != nil {
		t.Error("aborted ReadRunCtx returned its (pooled, partly filled) buffer")
	}

	if got, want := d.Clock()-clock0, cost.Seek+3*cost.Transfer; got != want {
		t.Errorf("clock delta = %v, want exactly %v (3 pages then abort)", got, want)
	}
	st := d.Stats()
	if got, want := st.PageReads-st0.PageReads, int64(3); got != want {
		t.Errorf("platter reads = %d, want %d", got, want)
	}
	if got, want := st.CanceledOps-st0.CanceledOps, int64(1); got != want {
		t.Errorf("CanceledOps delta = %d, want %d", got, want)
	}

	// The device is not poisoned: the same run under a live context
	// completes — into the buffer the abort put back, most likely — with
	// the right bytes, and charges all 8 pages on top of the aborted 3.
	if got, want := wantRunBytes(t, d, id, 8)-st0.PageReads, int64(11); got != want {
		t.Errorf("total platter reads = %d, want %d", got, want)
	}
	// wantRunBytes' own page-by-page compare is 8 more on a cacheless device.
	if got, want := d.Stats().PageReads-st0.PageReads, int64(3+8+8); got != want {
		t.Errorf("platter reads after the byte compare = %d, want %d", got, want)
	}
}

// TestCancelClockLimitExactBoundary: a run whose total cost lands exactly on
// the limit completes — expiry is checked before a charge, never applied
// retroactively to work already done.
func TestCancelClockLimitExactBoundary(t *testing.T) {
	d, id, cost := cancelTestDevice(t, 4)
	clock0 := d.Clock()
	limit := clock0 + cost.Seek + 4*cost.Transfer
	ctx := WithClockLimit(context.Background(), d, limit)
	if _, err := d.ReadRunCtx(ctx, id, 0, 4); err != nil {
		t.Fatalf("run costing exactly the limit should complete, got %v", err)
	}
	if got, want := d.Clock()-clock0, cost.Seek+4*cost.Transfer; got != want {
		t.Errorf("clock delta = %v, want %v", got, want)
	}
	// The next operation observes the exhausted budget before charging.
	buf := make([]byte, PageSize)
	wantCanceled(t, d.ReadPageCtx(ctx, id, 0, buf), context.DeadlineExceeded)
	if got, want := d.Clock()-clock0, cost.Seek+4*cost.Transfer; got != want {
		t.Errorf("post-expiry op moved the clock to delta %v", got)
	}
}

// TestCancelAbortsRealTimeEmulationWait: with real-time emulation on, a
// wall-clock deadline interrupts the scaled sleep instead of serving it out
// — an abandoned query stops occupying its worker almost immediately.
func TestCancelAbortsRealTimeEmulationWait(t *testing.T) {
	cost := CostModel{Seek: time.Second, Transfer: 250 * time.Millisecond, CacheHit: time.Microsecond}
	d := NewDeviceChannels(cost, 0, 1)
	id := d.CreateFileInGroup("rt", "")
	page := make([]byte, PageSize)
	for i := 0; i < 4; i++ {
		if _, err := d.AppendPageCtx(context.Background(), id, page); err != nil {
			t.Fatal(err)
		}
	}
	d.SetRealTimeScale(1.0)
	st0 := d.Stats()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := d.ReadRunCtx(ctx, id, 0, 4) // 2s of simulated I/O, slept once
	elapsed := time.Since(start)
	wantCanceled(t, err, context.DeadlineExceeded)
	if elapsed >= time.Second {
		t.Errorf("emulation wait ran %v despite a 50ms deadline", elapsed)
	}
	if got := d.Stats().CanceledOps - st0.CanceledOps; got != 1 {
		t.Errorf("CanceledOps delta = %d, want 1", got)
	}
}

// TestCancelWaitDone pins the attach-side wait the engine's single-flight
// rests on: a closed channel wins over a live context (nil included), and a
// canceled context releases the waiter — with the device's error shape —
// while the channel stays open.
func TestCancelWaitDone(t *testing.T) {
	closed := make(chan struct{})
	close(closed)
	if err := WaitDone(nil, closed); err != nil {
		t.Errorf("nil context, closed channel: %v", err)
	}
	if err := WaitDone(context.Background(), closed); err != nil {
		t.Errorf("live context, closed channel: %v", err)
	}

	open := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	released := make(chan error, 1)
	go func() { released <- WaitDone(ctx, open) }()
	cancel()
	wantCanceled(t, <-released, context.Canceled)

	expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	wantCanceled(t, WaitDone(expired, open), context.DeadlineExceeded)
}
