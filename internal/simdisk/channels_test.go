package simdisk

import (
	"context"
	"testing"
	"time"
)

// twoChannelFiles creates files on dev until it holds one file per channel
// of a 2-channel device, each with n pages, and returns them.
func twoChannelFiles(t *testing.T, d *Device, n int) (onCh0, onCh1 FileID) {
	t.Helper()
	have := map[*channel]FileID{}
	for i := 0; len(have) < 2 && i < 64; i++ {
		id := d.CreateFileInGroup("f", "")
		ch := d.channelOf(id)
		if _, ok := have[ch]; ok {
			if err := d.DeleteFile(id); err != nil {
				t.Fatal(err)
			}
			continue
		}
		have[ch] = id
		for p := 0; p < n; p++ {
			if _, err := d.AppendPageCtx(context.Background(), id, page(byte(p))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(have) != 2 {
		t.Fatal("could not place one file on each of 2 channels")
	}
	onCh0 = have[&d.channels[0]]
	onCh1 = have[&d.channels[1]]
	return onCh0, onCh1
}

// TestChannelsIndependentHeads is the point of multi-channel devices:
// interleaved sequential scans of two files on different channels keep both
// runs sequential (one seek each), where a single head would seek on every
// access.
func TestChannelsIndependentHeads(t *testing.T) {
	d := NewDeviceChannels(DefaultCostModel(), 0, 2)
	a, b := twoChannelFiles(t, d, 4)
	d.ResetStats()
	buf := make([]byte, PageSize)
	for i := int64(0); i < 4; i++ { // interleave a and b page by page
		if err := d.ReadPageCtx(context.Background(), a, i, buf); err != nil {
			t.Fatal(err)
		}
		if err := d.ReadPageCtx(context.Background(), b, i, buf); err != nil {
			t.Fatal(err)
		}
	}
	if s := d.Stats(); s.Seeks != 2 || s.SeqPages != 6 {
		t.Fatalf("interleaved cross-channel scans: %d seeks, %d seq pages; want 2 and 6", s.Seeks, s.SeqPages)
	}

	// The same interleave on a single-channel device seeks every access.
	d1 := NewDevice(DefaultCostModel(), 0)
	a1 := d1.CreateFileInGroup("a", "")
	b1 := d1.CreateFileInGroup("b", "")
	for p := 0; p < 4; p++ {
		if _, err := d1.AppendPageCtx(context.Background(), a1, page(byte(p))); err != nil {
			t.Fatal(err)
		}
		if _, err := d1.AppendPageCtx(context.Background(), b1, page(byte(p))); err != nil {
			t.Fatal(err)
		}
	}
	d1.ResetStats()
	for i := int64(0); i < 4; i++ {
		if err := d1.ReadPageCtx(context.Background(), a1, i, buf); err != nil {
			t.Fatal(err)
		}
		if err := d1.ReadPageCtx(context.Background(), b1, i, buf); err != nil {
			t.Fatal(err)
		}
	}
	if s := d1.Stats(); s.Seeks != 8 {
		t.Fatalf("interleaved single-channel scans: %d seeks, want 8", s.Seeks)
	}
}

// TestChannelClockIsCriticalPath checks that Clock() on a multi-channel
// device reports the busiest channel plus shared time, not the sum.
func TestChannelClockIsCriticalPath(t *testing.T) {
	cost := CostModel{Seek: 10 * time.Millisecond, Transfer: time.Millisecond}
	d := NewDeviceChannels(cost, 0, 2)
	a, b := twoChannelFiles(t, d, 3)
	d.ResetClock()
	buf := make([]byte, PageSize)
	// One seek + 3 transfers on channel of a; one seek + 1 transfer on b's.
	for i := int64(0); i < 3; i++ {
		if err := d.ReadPageCtx(context.Background(), a, i, buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.ReadPageCtx(context.Background(), b, 0, buf); err != nil {
		t.Fatal(err)
	}
	want := cost.Seek + 3*cost.Transfer // critical path: channel of a
	if got := d.Clock(); got != want {
		t.Fatalf("Clock() = %v, want busiest channel %v", got, want)
	}
	cs := d.ChannelStats()
	if len(cs) != 2 {
		t.Fatalf("ChannelStats returned %d channels, want 2", len(cs))
	}
	var total time.Duration
	for _, c := range cs {
		total += c.Busy
	}
	if want := 2*cost.Seek + 4*cost.Transfer; total != want {
		t.Fatalf("summed channel busy = %v, want all charged platter time %v", total, want)
	}
}

// TestSingleChannelClockUnchanged pins the backwards-compatibility
// guarantee: with one channel, every charge — platter and cache hit —
// accumulates into one clock exactly as the original single-accumulator
// model did.
func TestSingleChannelClockUnchanged(t *testing.T) {
	cost := CostModel{Seek: 8 * time.Millisecond, Transfer: 25 * time.Microsecond, CacheHit: 200 * time.Nanosecond}
	d := NewDevice(cost, 16)
	f := d.CreateFileInGroup("f", "")
	for p := 0; p < 3; p++ {
		if _, err := d.AppendPageCtx(context.Background(), f, page(byte(p))); err != nil {
			t.Fatal(err)
		}
	}
	d.ResetClock()
	d.DropCaches()
	buf := make([]byte, PageSize)
	for i := int64(0); i < 3; i++ { // sequential misses: 1 seek + 3 transfers
		if err := d.ReadPageCtx(context.Background(), f, i, buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.ReadPageCtx(context.Background(), f, 1, buf); err != nil { // cache hit
		t.Fatal(err)
	}
	want := cost.Seek + 3*cost.Transfer + cost.CacheHit
	if got := d.Clock(); got != want {
		t.Fatalf("single-channel Clock() = %v, want exact sum %v", got, want)
	}
}

// TestDropCachesForgetsEveryChannel is the regression test for the
// multi-channel DropCaches contract: after a drop, the next read on every
// channel pays a seek — no channel may keep its head position.
func TestDropCachesForgetsEveryChannel(t *testing.T) {
	d := NewDeviceChannels(DefaultCostModel(), 64, 2)
	a, b := twoChannelFiles(t, d, 3)
	buf := make([]byte, PageSize)
	// Establish both heads mid-file with platter reads (the appends above
	// populated the write-through cache, so clear it first or the reads
	// would be hits and move no head).
	establish := func() {
		d.cache.Clear()
		for _, id := range []FileID{a, b} {
			for i := int64(0); i < 2; i++ {
				if err := d.ReadPageCtx(context.Background(), id, i, buf); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	establish()
	// Control: without a drop, continuing each run is sequential (page 2 is
	// no longer cached — the pre-establish clear removed the appends' entry).
	d.ResetStats()
	if err := d.ReadPageCtx(context.Background(), a, 2, buf); err != nil {
		t.Fatal(err)
	}
	if err := d.ReadPageCtx(context.Background(), b, 2, buf); err != nil {
		t.Fatal(err)
	}
	if s := d.Stats(); s.Seeks != 0 || s.SeqPages != 2 {
		t.Fatalf("pre-drop continuation: %d seeks, %d seq; want 0 and 2", s.Seeks, s.SeqPages)
	}

	// Re-establish heads, drop, and continue: every channel must now seek.
	establish()
	d.DropCaches()
	d.ResetStats()
	if err := d.ReadPageCtx(context.Background(), a, 2, buf); err != nil {
		t.Fatal(err)
	}
	if err := d.ReadPageCtx(context.Background(), b, 2, buf); err != nil {
		t.Fatal(err)
	}
	cs := d.ChannelStats()
	for _, c := range cs {
		if c.Seeks != 1 || c.SeqPages != 0 {
			t.Fatalf("post-drop channel %d: %d seeks, %d seq; want exactly 1 seek", c.Channel, c.Seeks, c.SeqPages)
		}
	}
}

// TestResetStatsClearsChannels verifies stat resets fan out to the
// per-channel counters.
func TestResetStatsClearsChannels(t *testing.T) {
	d := NewDeviceChannels(DefaultCostModel(), 0, 4)
	f := d.CreateFileInGroup("f", "")
	if _, err := d.AppendPageCtx(context.Background(), f, page(1)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, PageSize)
	if err := d.ReadPageCtx(context.Background(), f, 0, buf); err != nil {
		t.Fatal(err)
	}
	if s := d.Stats(); s.Seeks == 0 {
		t.Fatal("setup produced no seeks")
	}
	d.ResetStats()
	if s := d.Stats(); s.Seeks != 0 || s.SeqPages != 0 {
		t.Fatalf("ResetStats left channel counters: %+v", s)
	}
	for _, c := range d.ChannelStats() {
		if c.Seeks != 0 || c.SeqPages != 0 {
			t.Fatalf("ResetStats left channel %d counters: %+v", c.Channel, c)
		}
	}
	d.ResetClock()
	if d.Clock() != 0 {
		t.Fatalf("ResetClock left %v on the clock", d.Clock())
	}
	for _, c := range d.ChannelStats() {
		if c.Busy != 0 {
			t.Fatalf("ResetClock left channel %d busy %v", c.Channel, c.Busy)
		}
	}
}
