package simdisk

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// sfTestDevice builds a device with one file of n distinct pages and
// sharing enabled.
func sfTestDevice(t *testing.T, n int, cache int) (*Device, FileID) {
	t.Helper()
	d := NewDevice(DefaultCostModel(), cache)
	d.SetShareReads(true)
	id := d.CreateFileInGroup("shared", "")
	page := make([]byte, PageSize)
	for i := 0; i < n; i++ {
		for j := range page {
			page[j] = byte(i + j)
		}
		if _, err := d.AppendPageCtx(context.Background(), id, page); err != nil {
			t.Fatal(err)
		}
	}
	d.ResetClock()
	d.ResetStats()
	d.DropCaches()
	return d, id
}

// inflightRuns reports how many run reads are currently registered on id.
func (d *Device) inflightRuns(id FileID) int {
	d.sfMu.Lock()
	defer d.sfMu.Unlock()
	return len(d.sfInflight[id])
}

// TestSingleFlightChargesOneRead is the charge-regression contract: two
// concurrent reads of the same run must charge the simulated clock and the
// page counters exactly one read's worth — the attached read is free.
// Determinism: the leader's real-time emulation sleep keeps its registration
// in flight while the waiter attaches (the waiter only starts after the
// registration is observed).
func TestSingleFlightChargesOneRead(t *testing.T) {
	const pages = 64
	d, id := sfTestDevice(t, pages, 0)
	cost := d.cost
	// One cold run: a seek plus pages transfers. Scale the emulation so the
	// leader stays in flight for a comfortable wall-clock window.
	want := cost.Seek + time.Duration(pages)*cost.Transfer
	d.SetRealTimeScale(float64(250*time.Millisecond) / float64(want))

	var leaderBuf, waiterBuf []byte
	var leaderErr, waiterErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		leaderBuf, leaderErr = d.ReadRunCtx(context.Background(), id, 0, pages)
	}()
	// Wait until the leader's run is registered before starting the waiter.
	deadline := time.Now().Add(5 * time.Second)
	for d.inflightRuns(id) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("leader never registered its in-flight run")
		}
		time.Sleep(100 * time.Microsecond)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		waiterBuf, waiterErr = d.ReadRunCtx(context.Background(), id, 8, 16) // contained sub-range
	}()
	wg.Wait()
	if leaderErr != nil || waiterErr != nil {
		t.Fatalf("reads failed: leader %v waiter %v", leaderErr, waiterErr)
	}
	if !bytes.Equal(waiterBuf, leaderBuf[8*PageSize:24*PageSize]) {
		t.Fatal("attached read returned different bytes than the leader's range")
	}

	st := d.Stats()
	if st.CoalescedReads != 1 || st.CoalescedPages != 16 {
		t.Fatalf("coalescing counters = %d reads / %d pages, want 1 / 16", st.CoalescedReads, st.CoalescedPages)
	}
	if st.PageReads != pages {
		t.Fatalf("PageReads = %d, want exactly one run's %d", st.PageReads, pages)
	}
	if st.CacheHits != 0 {
		t.Fatalf("CacheHits = %d, want 0 (cache disabled)", st.CacheHits)
	}
	if got := d.Clock(); got != want {
		t.Fatalf("Clock = %v, want exactly one read's charge %v", got, want)
	}
}

// TestSingleFlightDisjointRangesDoNotCoalesce pins that only genuinely
// overlapping (contained) ranges attach: serial reads of disjoint runs each
// pay their own I/O even with sharing on.
func TestSingleFlightDisjointRangesDoNotCoalesce(t *testing.T) {
	d, id := sfTestDevice(t, 32, 0)
	if _, err := d.ReadRunCtx(context.Background(), id, 0, 16); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ReadRunCtx(context.Background(), id, 16, 16); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.CoalescedReads != 0 || st.PageReads != 32 {
		t.Fatalf("serial disjoint reads coalesced: %+v", st)
	}
}

// TestSingleFlightOffBitForBit: with sharing off (the default), the device
// behaves exactly as before — no coalescing counters, every read charged.
func TestSingleFlightOffBitForBit(t *testing.T) {
	d, id := sfTestDevice(t, 16, 0)
	d.SetShareReads(false)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := d.ReadRunCtx(context.Background(), id, 0, 16); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	st := d.Stats()
	if st.CoalescedReads != 0 || st.CoalescedPages != 0 {
		t.Fatalf("sharing off but coalescing counted: %+v", st)
	}
	if st.PageReads != 4*16 {
		t.Fatalf("PageReads = %d, want 64 (4 independent reads)", st.PageReads)
	}
}

// TestSingleFlightWaiterCancellation: a waiter whose context dies while
// attached returns a cancellation error; the leader's read is unaffected.
func TestSingleFlightWaiterCancellation(t *testing.T) {
	const pages = 64
	d, id := sfTestDevice(t, pages, 0)
	want := d.cost.Seek + time.Duration(pages)*d.cost.Transfer
	d.SetRealTimeScale(float64(300*time.Millisecond) / float64(want))

	var wg sync.WaitGroup
	wg.Add(1)
	var leaderErr error
	go func() {
		defer wg.Done()
		_, leaderErr = d.ReadRunCtx(context.Background(), id, 0, pages)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for d.inflightRuns(id) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("leader never registered")
		}
		time.Sleep(100 * time.Microsecond)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() { time.Sleep(5 * time.Millisecond); cancel() }()
	_, err := d.ReadRunCtx(ctx, id, 0, 8)
	if err == nil || !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled waiter returned %v, want ErrCanceled", err)
	}
	wg.Wait()
	if leaderErr != nil {
		t.Fatalf("leader failed after waiter cancellation: %v", leaderErr)
	}
	if st := d.Stats(); st.CoalescedReads != 0 {
		t.Fatalf("canceled waiter still counted as coalesced: %+v", st)
	}
}

// TestSingleFlightLeaderFailureFallsBack: when the leader's read fails (an
// injected fault), a concurrent reader of a sub-range must still succeed —
// whether it attached to the failing leader (and fell back to its own read)
// or never overlapped it. The fault lands on a page only the leader's range
// covers, so the outcome is deterministic for both interleavings.
func TestSingleFlightLeaderFailureFallsBack(t *testing.T) {
	const pages = 32
	d, id := sfTestDevice(t, pages, 0)
	bang := errors.New("bang")
	d.InjectReadFault(id, pages-1, bang) // leader trips at its last page

	var wg sync.WaitGroup
	wg.Add(1)
	var leaderErr error
	go func() {
		defer wg.Done()
		_, leaderErr = d.ReadRunCtx(context.Background(), id, 0, pages)
	}()
	buf, err := d.ReadRunCtx(context.Background(), id, 0, 8)
	wg.Wait()
	if !errors.Is(leaderErr, bang) {
		t.Fatalf("leader error = %v, want the injected fault", leaderErr)
	}
	if err != nil {
		t.Fatalf("concurrent sub-range read failed alongside the leader: %v", err)
	}
	if len(buf) != 8*PageSize {
		t.Fatalf("sub-range read returned %d bytes, want %d", len(buf), 8*PageSize)
	}
}

// TestSingleFlightFailedLeaderSingleRetry is the herd-regression contract
// at the device layer: when a leader's read fails, its waiters must loop
// back through the coalescing path so exactly one retry read is charged —
// not one independent readRunDirect per waiter. A doomed run is registered
// by hand and a herd parks on it; failing it (deregister, then publish)
// wakes the herd, mutex serialization picks one retry leader, and the
// real-time stretched retry read holds its registration open so the rest
// attach to it.
func TestSingleFlightFailedLeaderSingleRetry(t *testing.T) {
	const pages = 8
	d, id := sfTestDevice(t, pages, 0)
	want := d.cost.Seek + time.Duration(pages)*d.cost.Transfer
	d.SetRealTimeScale(float64(250*time.Millisecond) / float64(want))

	doomed := &inflightRun{start: 0, n: pages, done: make(chan struct{})}
	d.sfMu.Lock()
	d.sfInflight[id] = append(d.sfInflight[id], doomed)
	d.sfMu.Unlock()

	const waiters = 4
	bufs := make([][]byte, waiters)
	errs := make([]error, waiters)
	var wg sync.WaitGroup
	for g := 0; g < waiters; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			bufs[g], errs[g] = d.ReadRunCtx(context.Background(), id, 0, pages)
		}()
	}

	// Fail the doomed leader the way a real one publishes: deregister under
	// the lock, then close done. (A waiter that never parked on it simply
	// finds the retry leader's registration instead — same coalescing.)
	doomed.err = errors.New("bang")
	d.sfMu.Lock()
	delete(d.sfInflight, id)
	d.sfMu.Unlock()
	close(doomed.done)
	wg.Wait()

	for g := 0; g < waiters; g++ {
		if errs[g] != nil {
			t.Fatalf("waiter %d inherited the dead leader's outcome: %v", g, errs[g])
		}
		for p := int64(0); p < pages; p++ {
			if bufs[g][p*PageSize] != byte(p) || bufs[g][p*PageSize+1] != byte(p+1) {
				t.Fatalf("waiter %d: page %d bytes corrupted", g, p)
			}
		}
	}
	st := d.Stats()
	if st.PageReads != pages {
		t.Fatalf("PageReads = %d, want exactly one retry read's %d (thundering herd)",
			st.PageReads, pages)
	}
	if st.CoalescedReads != waiters-1 || st.CoalescedPages != (waiters-1)*pages {
		t.Fatalf("coalescing counters = %d reads / %d pages, want %d / %d",
			st.CoalescedReads, st.CoalescedPages, waiters-1, (waiters-1)*pages)
	}
	if d.inflightRuns(id) != 0 {
		t.Fatal("in-flight registry leaked entries")
	}
}

// TestSingleFlightConcurrentStorm hammers one file from many goroutines
// with overlapping and disjoint ranges under the race detector and checks
// the byte contents of every read.
func TestSingleFlightConcurrentStorm(t *testing.T) {
	const pages = 64
	d, id := sfTestDevice(t, pages, 128)
	d.SetRealTimeScale(0.00001)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				start := int64((g*7 + i*3) % (pages - 8))
				n := int64(1 + (g+i)%8)
				buf, err := d.ReadRunCtx(context.Background(), id, start, n)
				if err != nil {
					t.Errorf("goroutine %d read %d: %v", g, start, err)
					return
				}
				for p := int64(0); p < n; p++ {
					idx := start + p
					if buf[p*PageSize] != byte(idx) || buf[p*PageSize+1] != byte(idx+1) {
						t.Errorf("goroutine %d: page %d bytes corrupted", g, idx)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if d.inflightRuns(id) != 0 {
		t.Fatal("in-flight registry leaked entries")
	}
}
