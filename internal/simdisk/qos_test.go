package simdisk

import (
	"context"
	"testing"
	"time"
)

// qosTestDevice builds an uncached C-channel device so every read is a
// platter miss with deterministic cost.
func qosTestDevice(t *testing.T, channels int) *Device {
	t.Helper()
	return NewDeviceChannels(ReducedScaleCostModel(), 0, channels)
}

// fillFile creates a file of n pages and returns its id. The writes are
// unscoped (background setup — nothing to attribute).
func fillFile(t *testing.T, d *Device, name string, n int64) FileID {
	t.Helper()
	id := d.CreateFileInGroup(name, "")
	page := make([]byte, PageSize)
	for i := int64(0); i < n; i++ {
		if _, err := d.AppendPageCtx(context.Background(), id, page); err != nil {
			t.Fatalf("AppendPage: %v", err)
		}
	}
	return id
}

// totalBusy sums platter busy time across all channels — the conservation
// right-hand side: every scoped charge must land here exactly once.
func totalBusy(d *Device) time.Duration {
	var sum int64
	for i := range d.channels {
		sum += d.channels[i].busy.Load()
	}
	return time.Duration(sum)
}

// TestQueueingDelayCharged pins the arrival-gated model on one channel: a
// scope that returns to a channel another scope has pushed ahead is charged
// exactly the time the head was busy with the other scope's work.
func TestQueueingDelayCharged(t *testing.T) {
	d := qosTestDevice(t, 1)
	fa := fillFile(t, d, "a", 64)
	fb := fillFile(t, d, "b", 2)
	d.ResetClock()
	d.ResetStats()

	ctxA, sa := WithOpScope(context.Background(), PriForeground)
	ctxB, sb := WithOpScope(context.Background(), PriForeground)
	buf := make([]byte, PageSize)

	// B's first read positions its timeline at the channel frontier: no delay.
	if err := d.ReadPageCtx(ctxB, fb, 0, buf); err != nil {
		t.Fatal(err)
	}
	if got := sb.Queued(); got != 0 {
		t.Fatalf("first read queued %v, want 0", got)
	}

	// A monopolizes the head for a long sequential run.
	if _, err := d.ReadRunCtx(ctxA, fa, 0, 64); err != nil {
		t.Fatal(err)
	}
	if got := sa.Queued(); got != 0 {
		t.Fatalf("A (first on channel since B left) queued %v, want 0", got)
	}

	// B returns: it arrives where its last op completed, finds the head free
	// only after A's run, and is charged exactly A's service time as delay.
	if err := d.ReadPageCtx(ctxB, fb, 1, buf); err != nil {
		t.Fatal(err)
	}
	if got, want := sb.Queued(), sa.Charged(); got != want {
		t.Fatalf("B queued %v, want exactly A's charge %v", got, want)
	}

	// Conservation: scoped charges sum to total platter busy time; queueing
	// delay is attribution only, never extra busy time.
	if got, want := sa.Charged()+sb.Charged(), totalBusy(d); got != want {
		t.Fatalf("charges %v != busy %v", got, want)
	}
	st := d.Stats()
	if st.QueuedDelay != sb.Queued() {
		t.Fatalf("Stats.QueuedDelay %v, want %v", st.QueuedDelay, sb.Queued())
	}
	// Total = charged + queued for scopes that never hit cache.
	if got, want := sb.Total(), sb.Charged()+sb.Queued(); got != want {
		t.Fatalf("B total %v, want %v", got, want)
	}
}

// TestQueueingDelayIndependentChannels pins channel independence: work on
// one channel never delays a scope whose files live on another.
func TestQueueingDelayIndependentChannels(t *testing.T) {
	d := qosTestDevice(t, 4)
	// Find two files on different channels.
	fa := fillFile(t, d, "a", 64)
	var fb FileID
	for i := 0; i < 64; i++ {
		id := fillFile(t, d, "b", 2)
		if d.channelOf(id) != d.channelOf(fa) {
			fb = id
			break
		}
	}
	if fb == InvalidFile {
		t.Fatal("could not find files on distinct channels")
	}
	d.ResetClock()
	d.ResetStats()

	ctxA, sa := WithOpScope(context.Background(), PriForeground)
	ctxB, sb := WithOpScope(context.Background(), PriForeground)
	buf := make([]byte, PageSize)

	if err := d.ReadPageCtx(ctxB, fb, 0, buf); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ReadRunCtx(ctxA, fa, 0, 64); err != nil {
		t.Fatal(err)
	}
	if err := d.ReadPageCtx(ctxB, fb, 1, buf); err != nil {
		t.Fatal(err)
	}
	if got := sb.Queued(); got != 0 {
		t.Fatalf("B queued %v on an independent channel, want 0", got)
	}
	if got := sa.Queued(); got != 0 {
		t.Fatalf("A queued %v, want 0", got)
	}
	if got, want := sa.Charged()+sb.Charged(), totalBusy(d); got != want {
		t.Fatalf("charges %v != busy %v", got, want)
	}
}

// TestSerialScopeMatchesClock pins the C=1 D=1 compatibility guarantee: a
// single serial scope's Total is bit-for-bit the device clock delta — the
// original single-head model.
func TestSerialScopeMatchesClock(t *testing.T) {
	d := NewDeviceChannels(ReducedScaleCostModel(), 128, 1)
	fa := fillFile(t, d, "a", 32)
	d.DropCaches()
	d.ResetClock()

	ctx, s := WithOpScope(context.Background(), PriForeground)
	buf := make([]byte, PageSize)
	before := d.Clock()
	if _, err := d.ReadRunCtx(ctx, fa, 0, 32); err != nil {
		t.Fatal(err)
	}
	// Re-read one page: now a cache hit, attributed as shared time.
	if err := d.ReadPageCtx(ctx, fa, 5, buf); err != nil {
		t.Fatal(err)
	}
	if got, want := s.Total(), d.Clock()-before; got != want {
		t.Fatalf("serial scope total %v, want clock delta %v", got, want)
	}
	if s.Shared() != d.cost.CacheHit {
		t.Fatalf("shared %v, want one cache hit %v", s.Shared(), d.cost.CacheHit)
	}
	if s.Queued() != 0 {
		t.Fatalf("serial scope queued %v, want 0", s.Queued())
	}
}

// TestPhaseClockReadsScopeOrDevice pins PhaseClock's two sources — the
// context's scope when it carries one, the device clock otherwise — and that
// taking and reading one allocates nothing: four are taken per query.
func TestPhaseClockReadsScopeOrDevice(t *testing.T) {
	d := qosTestDevice(t, 1)
	id := fillFile(t, d, "f", 4)
	ctx, scope := WithOpScope(context.Background(), PriForeground)
	scoped, bare := PhaseClock(ctx, d), PhaseClock(context.Background(), d)
	s0, b0 := scoped.Now(), bare.Now()
	if err := d.ReadPageCtx(ctx, id, 2, make([]byte, PageSize)); err != nil {
		t.Fatal(err)
	}
	if got := scoped.Now() - s0; got != scope.Total() || got <= 0 {
		t.Fatalf("scoped phase = %v, the scope charged %v", got, scope.Total())
	}
	if got, want := bare.Now()-b0, d.Clock()-b0; got != want || got <= 0 {
		t.Fatalf("unscoped phase = %v, the device clock moved %v", got, want)
	}
	var sink time.Duration
	if n := testing.AllocsPerRun(100, func() {
		sink += PhaseClock(ctx, d).Now() + PhaseClock(context.Background(), d).Now()
	}); n != 0 {
		t.Fatalf("PhaseClock allocates %v times per pair of readings, want 0", n)
	}
}

// TestDetachKeepsScopeWithoutAllocating: a detached context outlives its
// parent's cancellation, its page operations are charged to the parent's
// scope, and they allocate nothing — a lookup that reaches a bare
// context.WithoutCancel boxes it on every page.
func TestDetachKeepsScopeWithoutAllocating(t *testing.T) {
	d := qosTestDevice(t, 1)
	id := fillFile(t, d, "f", 4)
	parent, cancel := context.WithCancel(context.Background())
	ctx, scope := WithOpScope(parent, PriForeground)
	detached := Detach(ctx)
	cancel()
	if ScopeFrom(detached) != scope {
		t.Fatal("Detach lost the scope")
	}
	page := make([]byte, PageSize)
	before := scope.Total()
	op := func() {
		if err := d.WritePageCtx(detached, id, 1, page); err != nil {
			t.Fatal(err)
		}
		if err := d.ReadPageCtx(detached, id, 2, page); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(100, op); n != 0 {
		t.Fatalf("a page write and read under Detach: %v allocations, want 0", n)
	}
	if scope.Total() <= before {
		t.Fatal("the detached page operations were not charged to the scope")
	}
	if ScopeFrom(Detach(context.Background())) != nil {
		t.Fatal("Detach of a scope-less context invented a scope")
	}
}
