package simdisk

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"
)

// faultDev builds a cacheless single-channel device with one file of n pages.
func faultDev(t *testing.T, n int64) (*Device, FileID) {
	t.Helper()
	d := NewDevice(CostModel{Seek: 8 * time.Millisecond, Transfer: 25 * time.Microsecond, CacheHit: 5 * time.Microsecond}, 0)
	id := d.CreateFileInGroup("f", "")
	page := make([]byte, PageSize)
	for i := int64(0); i < n; i++ {
		page[0] = byte(i)
		if _, err := d.AppendPageCtx(context.Background(), id, page); err != nil {
			t.Fatal(err)
		}
	}
	return d, id
}

// wantRunBytes is the second half of every ReadRunCtx error-path case: the
// failed call handed its buffer back to the pool partly filled, so the same
// run read again must come back complete — each page exactly what
// ReadPageCtx returns into a buffer of the test's own. It returns the
// device's platter-read count taken right after the run read (before the
// page-by-page compare adds its own), for callers that pin the run's charge.
func wantRunBytes(t *testing.T, d *Device, id FileID, n int64) int64 {
	t.Helper()
	run, err := d.ReadRunCtx(context.Background(), id, 0, n)
	if err != nil {
		t.Fatalf("run read after a failed one: %v", err)
	}
	reads := d.Stats().PageReads
	page := make([]byte, PageSize)
	for i := int64(0); i < n; i++ {
		if err := d.ReadPageCtx(context.Background(), id, i, page); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(run[i*PageSize:(i+1)*PageSize], page) {
			t.Errorf("page %d of the run read after a failed one holds stale bytes", i)
		}
	}
	return reads
}

// faultSequence replays nReads sequential reads over the file and records
// which read ordinals faulted, with what classification.
func faultSequence(t *testing.T, plan FaultPlan, pages, nReads int64) []string {
	t.Helper()
	d, id := faultDev(t, pages)
	d.SetFaultPlan(plan)
	buf := make([]byte, PageSize)
	var seq []string
	for i := int64(0); i < nReads; i++ {
		err := d.ReadPageCtx(context.Background(), id, i%pages, buf)
		switch {
		case err == nil:
			seq = append(seq, "ok")
		case errors.Is(err, ErrPermanent):
			seq = append(seq, "perm")
		case errors.Is(err, ErrTransient):
			seq = append(seq, "trans")
		default:
			t.Fatalf("read %d: unclassified fault %v", i, err)
		}
	}
	return seq
}

// TestFaultPlanDeterministic pins that the same seed replays the same fault
// sequence, and a different seed a different one.
func TestFaultPlanDeterministic(t *testing.T) {
	plan := FaultPlan{Seed: 42, TransientRate: 0.2, PermanentRate: 0.02, SpikeRate: 0.1}
	a := faultSequence(t, plan, 64, 512)
	b := faultSequence(t, plan, 64, 512)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at read %d: %s vs %s", i, a[i], b[i])
		}
	}
	plan.Seed = 43
	c := faultSequence(t, plan, 64, 512)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical fault sequences")
	}
	var faults int
	for _, s := range a {
		if s != "ok" {
			faults++
		}
	}
	if faults == 0 {
		t.Fatal("plan with 20% transient rate injected nothing over 512 reads")
	}
}

// TestFaultClassification pins the sentinel taxonomy: explicit patterns
// surface as their kind, unwrap to the custom cause, and a permanent page
// fails on every subsequent read while a bounded transient pattern clears.
func TestFaultClassification(t *testing.T) {
	d, id := faultDev(t, 4)
	boom := errors.New("head crash")
	d.SetFaultPlan(FaultPlan{
		Seed: 1,
		Pages: []PageFault{
			{File: id, Page: 0, Kind: FaultTransient, Count: 2},
			{File: id, Page: 1, Kind: FaultPermanent, Err: boom},
		},
	})
	buf := make([]byte, PageSize)
	for i := 0; i < 2; i++ {
		err := d.ReadPageCtx(context.Background(), id, 0, buf)
		if !errors.Is(err, ErrTransient) || errors.Is(err, ErrPermanent) {
			t.Fatalf("read %d of page 0: want transient, got %v", i, err)
		}
	}
	if err := d.ReadPageCtx(context.Background(), id, 0, buf); err != nil {
		t.Fatalf("transient pattern did not clear after Count reads: %v", err)
	}
	for i := 0; i < 3; i++ {
		err := d.ReadPageCtx(context.Background(), id, 1, buf)
		if !errors.Is(err, ErrPermanent) {
			t.Fatalf("read %d of page 1: want permanent, got %v", i, err)
		}
		if !errors.Is(err, boom) {
			t.Fatalf("permanent fault does not unwrap to cause: %v", err)
		}
	}
	st := d.Stats()
	if st.TransientFaults != 2 || st.PermanentFaults != 3 {
		t.Fatalf("fault ledger wrong: %+v", st)
	}
	// Clearing the plan stops injection.
	d.SetFaultPlan(FaultPlan{})
	if err := d.ReadPageCtx(context.Background(), id, 1, buf); err != nil {
		t.Fatalf("cleared plan still faulting: %v", err)
	}
}

// TestOneShotTransientFault pins the fault tests above this package arm: a
// one-entry plan with Count 1 fails the page's next read once — classified
// transient, unwrapping to the cause, charging nothing — and then reads clean.
func TestOneShotTransientFault(t *testing.T) {
	d, id := faultDev(t, 2)
	boom := errors.New("media error")
	d.SetFaultPlan(FaultPlan{Pages: []PageFault{{File: id, Page: 1, Kind: FaultTransient, Count: 1, Err: boom}}})
	buf := make([]byte, PageSize)
	before := d.Clock()
	err := d.ReadPageCtx(context.Background(), id, 1, buf)
	if !errors.Is(err, boom) || !errors.Is(err, ErrTransient) || errors.Is(err, ErrPermanent) {
		t.Fatalf("one-shot fault lost shape: %v", err)
	}
	if st := d.Stats(); d.Clock() != before || st.PageReads != 0 || st.TransientFaults != 1 {
		t.Fatalf("faulted read charged %v or miscounted: %+v", d.Clock()-before, st)
	}
	if err := d.ReadPageCtx(context.Background(), id, 1, buf); err != nil {
		t.Fatalf("one-shot fault not one-shot: %v", err)
	}
	if buf[0] != 1 {
		t.Fatalf("read after the fault returned page byte %d, want 1", buf[0])
	}
}

// TestRetryTransientToSuccess pins the retry loop: a pattern that faults the
// first k reads of a page is absorbed by a policy with enough attempts, the
// ledger records the retries, and no simulated time was charged for the
// failed attempts (exactly one platter read's worth of clock advanced).
func TestRetryTransientToSuccess(t *testing.T) {
	d, id := faultDev(t, 2)
	d.SetFaultPlan(FaultPlan{Seed: 7, Pages: []PageFault{{File: id, Page: 0, Kind: FaultTransient, Count: 2}}})
	d.SetRetryPolicy(RetryPolicy{MaxAttempts: 4, Backoff: time.Microsecond})

	// A clean read of page 1 measures the per-read simulated charge.
	buf := make([]byte, PageSize)
	before := d.Clock()
	if err := d.ReadPageCtx(context.Background(), id, 1, buf); err != nil {
		t.Fatal(err)
	}
	perRead := d.Clock() - before

	before = d.Clock()
	if err := d.ReadPageCtx(context.Background(), id, 0, buf); err != nil {
		t.Fatalf("retries did not absorb transient faults: %v", err)
	}
	if got := d.Clock() - before; got > perRead {
		t.Fatalf("failed attempts charged simulated time: %v > %v per clean read", got, perRead)
	}
	st := d.Stats()
	if st.RetriedOps != 2 {
		t.Fatalf("RetriedOps = %d, want 2", st.RetriedOps)
	}
	if st.RetryExhausted != 0 {
		t.Fatalf("RetryExhausted = %d, want 0", st.RetryExhausted)
	}
}

// TestRetryPermanentFailsFast pins that permanent faults are never retried.
func TestRetryPermanentFailsFast(t *testing.T) {
	d, id := faultDev(t, 2)
	d.SetFaultPlan(FaultPlan{Seed: 7, Pages: []PageFault{{File: id, Page: 0, Kind: FaultPermanent}}})
	d.SetRetryPolicy(RetryPolicy{MaxAttempts: 5, Backoff: time.Microsecond})
	buf := make([]byte, PageSize)
	err := d.ReadPageCtx(context.Background(), id, 0, buf)
	if !errors.Is(err, ErrPermanent) {
		t.Fatalf("want permanent fault, got %v", err)
	}
	st := d.Stats()
	if st.RetriedOps != 0 {
		t.Fatalf("permanent fault was retried %d times", st.RetriedOps)
	}
	if st.PermanentFaults != 1 {
		t.Fatalf("PermanentFaults = %d, want 1", st.PermanentFaults)
	}
}

// TestRetryExhaustion pins the exhaustion ledger and error shape when the
// fault outlives the attempt budget.
func TestRetryExhaustion(t *testing.T) {
	d, id := faultDev(t, 2)
	d.SetFaultPlan(FaultPlan{Seed: 7, Pages: []PageFault{{File: id, Page: 0, Kind: FaultTransient}}}) // forever
	d.SetRetryPolicy(RetryPolicy{MaxAttempts: 3, Backoff: time.Microsecond})
	buf := make([]byte, PageSize)
	err := d.ReadPageCtx(context.Background(), id, 0, buf)
	if !errors.Is(err, ErrTransient) {
		t.Fatalf("exhausted retry lost fault classification: %v", err)
	}
	st := d.Stats()
	if st.RetriedOps != 2 || st.RetryExhausted != 1 {
		t.Fatalf("ledger wrong after exhaustion: retried=%d exhausted=%d", st.RetriedOps, st.RetryExhausted)
	}
	// A run read exhausts the same way, on its second page this time, and
	// keeps no buffer; once the fault is gone the run reads clean.
	d.SetFaultPlan(FaultPlan{Seed: 7, Pages: []PageFault{{File: id, Page: 1, Kind: FaultTransient}}})
	if run, err := d.ReadRunCtx(context.Background(), id, 0, 2); !errors.Is(err, ErrTransient) || run != nil {
		t.Fatalf("exhausted run read returned (%d bytes, %v), want (nil, transient)", len(run), err)
	}
	d.SetFaultPlan(FaultPlan{})
	wantRunBytes(t, d, id, 2)
}

// TestRetryBudget pins that the cumulative backoff budget cuts the loop off
// before MaxAttempts when sleeps would exceed it.
func TestRetryBudget(t *testing.T) {
	d, id := faultDev(t, 2)
	d.SetFaultPlan(FaultPlan{Seed: 7, Pages: []PageFault{{File: id, Page: 0, Kind: FaultTransient}}})
	// 1ms, 2ms, 4ms, ... against a 2ms budget: one retry fits, the second
	// (2ms, cumulative 3ms) does not.
	d.SetRetryPolicy(RetryPolicy{MaxAttempts: 10, Backoff: time.Millisecond, Budget: 2 * time.Millisecond})
	buf := make([]byte, PageSize)
	err := d.ReadPageCtx(context.Background(), id, 0, buf)
	if !errors.Is(err, ErrTransient) {
		t.Fatalf("budget-exhausted error lost classification: %v", err)
	}
	st := d.Stats()
	if st.RetriedOps != 1 {
		t.Fatalf("RetriedOps = %d, want 1 (budget allows one 1ms backoff)", st.RetriedOps)
	}
	if st.RetryExhausted != 1 {
		t.Fatalf("RetryExhausted = %d, want 1", st.RetryExhausted)
	}
}

// TestRetryCancelDuringBackoff pins that a context canceled mid-backoff
// aborts the wait with an error matching both the cancellation and the
// fault taxonomy.
func TestRetryCancelDuringBackoff(t *testing.T) {
	d, id := faultDev(t, 2)
	d.SetFaultPlan(FaultPlan{Seed: 7, Pages: []PageFault{{File: id, Page: 0, Kind: FaultTransient}}})
	d.SetRetryPolicy(RetryPolicy{MaxAttempts: 5, Backoff: time.Hour})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	buf := make([]byte, PageSize)
	go func() { done <- d.ReadPageCtx(ctx, id, 0, buf) }()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("want cancellation, got %v", err)
		}
		if !errors.Is(err, ErrTransient) {
			t.Fatalf("cancel-during-backoff lost the fault being retried: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("retry backoff ignored cancellation")
	}
}

// TestLatencySpikeWallClockOnly pins that spike faults stall wall-clock
// emulation without advancing the simulated clock.
func TestLatencySpikeWallClockOnly(t *testing.T) {
	d, id := faultDev(t, 2)
	buf := make([]byte, PageSize)
	// Clean read first: page 0's charge without any plan.
	before := d.Clock()
	if err := d.ReadPageCtx(context.Background(), id, 0, buf); err != nil {
		t.Fatal(err)
	}
	clean := d.Clock() - before

	d.DropCaches()
	d.SetFaultPlan(FaultPlan{Seed: 1, SpikeLatency: time.Hour, Pages: []PageFault{{File: id, Page: 0, Kind: FaultSpike, Count: 1}}})
	before = d.Clock()
	if err := d.ReadPageCtx(context.Background(), id, 0, buf); err != nil {
		t.Fatal(err)
	}
	if got := d.Clock() - before; got > clean {
		t.Fatalf("spike advanced the simulated clock: %v > clean %v", got, clean)
	}
	if st := d.Stats(); st.LatencySpikes != 1 {
		t.Fatalf("LatencySpikes = %d, want 1", st.LatencySpikes)
	}
}

// TestStormModeWindows pins that storm windows multiply the fault rate: a
// plan whose base rate is zero outside the window faults only inside it.
func TestStormModeWindows(t *testing.T) {
	d, id := faultDev(t, 8)
	// Base rate 0.1 boosted x10 => rate 1.0 inside the storm window: reads
	// 0-3 of every 16 fault deterministically, the rest roll at 0.1.
	d.SetFaultPlan(FaultPlan{Seed: 5, TransientRate: 0.1, StormEvery: 16, StormLength: 4, StormFactor: 10})
	buf := make([]byte, PageSize)
	var inStorm, faulted int
	for i := 0; i < 64; i++ {
		err := d.ReadPageCtx(context.Background(), id, int64(i%8), buf)
		if i%16 < 4 {
			inStorm++
			if !errors.Is(err, ErrTransient) {
				t.Fatalf("storm-window read %d did not fault: %v", i, err)
			}
		}
		if err != nil {
			faulted++
		}
	}
	if inStorm != 16 {
		t.Fatalf("expected 16 storm reads, saw %d", inStorm)
	}
	if faulted >= 64 {
		t.Fatal("every read faulted; storm boost leaked outside its window")
	}
}

// TestArrayFaultPlanFanOut pins that an array installs decorrelated member
// plans and that retry policy fans out.
func TestArrayFaultPlanFanOut(t *testing.T) {
	a := NewDeviceArray(CostModel{Seek: time.Millisecond, Transfer: 10 * time.Microsecond, CacheHit: time.Microsecond}, 0, 2, 1, nil)
	a.SetFaultPlan(FaultPlan{Seed: 9, TransientRate: 0.5})
	if !a.FaultPlanActive() {
		t.Fatal("plan not active on array")
	}
	for i, m := range a.Members() {
		if !m.FaultPlanActive() {
			t.Fatalf("member %d has no plan", i)
		}
	}
	s0, s1 := a.Members()[0].faults.plan.Seed, a.Members()[1].faults.plan.Seed
	if s0 == s1 {
		t.Fatal("member seeds not decorrelated")
	}
	a.SetRetryPolicy(RetryPolicy{MaxAttempts: 3})
	if got := a.RetryPolicy().MaxAttempts; got != 3 {
		t.Fatalf("array retry policy = %d attempts, want 3", got)
	}
	a.SetFaultPlan(FaultPlan{})
	if a.FaultPlanActive() {
		t.Fatal("zero plan did not clear")
	}

	// An explicit page entry names an array-global file: it reaches the
	// member that owns the file, and only that one, under the local id.
	ctx := context.Background()
	var files [2]FileID
	for i := range files {
		files[i] = a.CreateFileInGroup("f", "")
		if _, err := a.AppendPageCtx(ctx, files[i], make([]byte, PageSize)); err != nil {
			t.Fatal(err)
		}
	}
	boom := errors.New("boom")
	a.SetRetryPolicy(RetryPolicy{}) // or the retries above absorb the one fault
	a.SetFaultPlan(FaultPlan{Pages: []PageFault{{File: files[1], Page: 0, Count: 1, Err: boom}}})
	if owner := a.MemberOf(files[1]); !a.Members()[owner].FaultPlanActive() || a.Members()[1-owner].FaultPlanActive() {
		t.Fatalf("page entry for a file on member %d armed the wrong members", owner)
	}
	buf := make([]byte, PageSize)
	if err := a.ReadPageCtx(ctx, files[0], 0, buf); err != nil {
		t.Fatalf("fault on file %d hit file %d: %v", files[1], files[0], err)
	}
	if err := a.ReadPageCtx(ctx, files[1], 0, buf); !errors.Is(err, boom) {
		t.Fatalf("page fault not routed to its file: %v", err)
	}
	if err := a.ReadPageCtx(ctx, files[1], 0, buf); err != nil {
		t.Fatalf("Count 1 entry faulted twice: %v", err)
	}
}
