package simdisk

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"
)

// TestArrayPlacementRoundRobin checks the placement rule's half for
// group-less (merge) files and the FileID encoding round-trip: they are
// dealt 0, 1, 2, 0, …, and a grouped file does not advance the deal.
func TestArrayPlacementRoundRobin(t *testing.T) {
	a := NewDeviceArray(DefaultCostModel(), 64, 3, 1, nil)
	for _, g := range []string{"ds0", "ds1", "ds2", "ds3"} {
		a.CreateFileInGroup(g+".raw", g)
	}
	// The deal starts at member 0 although grouped files came first, and
	// grouped files created between merge files do not advance it.
	var members []int
	for i := 0; i < 6; i++ {
		id := a.CreateFileInGroup("merge:f", "")
		members = append(members, a.MemberOf(id))
		if name, err := a.FileName(id); err != nil || name != "merge:f" {
			t.Fatalf("FileName(%d) = %q, %v", id, name, err)
		}
		a.CreateFileInGroup("ds1.raw.octree", "ds1")
	}
	if want := []int{0, 1, 2, 0, 1, 2}; !slices.Equal(members, want) {
		t.Fatalf("group-less files dealt onto %v, want %v", members, want)
	}
}

// TestArrayPlacementAffinity checks the placement rule's half for grouped
// files: a dataset's raw and tree files co-locate, different datasets
// spread, and the placement is deterministic.
func TestArrayPlacementAffinity(t *testing.T) {
	a := NewDeviceArray(DefaultCostModel(), 64, 4, 1, nil)
	b := NewDeviceArray(DefaultCostModel(), 64, 4, 1, nil)
	raw := a.CreateFileInGroup("ds3.raw", "ds3")
	tree := a.CreateFileInGroup("ds3.raw.octree", "ds3")
	if a.MemberOf(raw) != a.MemberOf(tree) {
		t.Fatalf("group ds3 split across members %d/%d", a.MemberOf(raw), a.MemberOf(tree))
	}
	// Different groups must be able to land elsewhere (spot-check that at
	// least two of a handful of groups differ — all-on-one would defeat
	// spreading files).
	seen := map[int]bool{}
	for _, g := range []string{"ds0", "ds1", "ds2", "ds3", "ds4", "ds5", "ds6", "ds7"} {
		m := a.MemberOf(a.CreateFileInGroup(g+".raw", g))
		if mb := b.MemberOf(b.CreateFileInGroup(g+".raw", g)); mb != m {
			t.Fatalf("group %s placed on member %d, then on %d", g, m, mb)
		}
		seen[m] = true
	}
	if len(seen) < 2 {
		t.Fatalf("the rule placed 8 groups on %d member(s)", len(seen))
	}
}

// TestArrayFileOps drives the whole Storage surface through an array and
// cross-checks against per-member state.
func TestArrayFileOps(t *testing.T) {
	a := NewDeviceArray(DefaultCostModel(), 64, 2, 2, nil)
	f := a.CreateFileInGroup("data", "")
	idx, err := a.AppendPageCtx(context.Background(), f, page(7))
	if err != nil || idx != 0 {
		t.Fatalf("AppendPage = %d, %v", idx, err)
	}
	if _, err := a.AppendPageCtx(context.Background(), f, page(8)); err != nil {
		t.Fatal(err)
	}
	if n, err := a.NumPages(f); err != nil || n != 2 {
		t.Fatalf("NumPages = %d, %v", n, err)
	}
	if err := a.WritePageCtx(context.Background(), f, 1, page(9)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, PageSize)
	if err := a.ReadPageCtx(context.Background(), f, 1, buf); err != nil || buf[0] != 9 {
		t.Fatalf("ReadPage: %v, buf[0]=%d", err, buf[0])
	}
	run, err := a.ReadRunCtx(context.Background(), f, 0, 2)
	if err != nil || run[0] != 7 || run[PageSize] != 9 {
		t.Fatalf("ReadRun: %v", err)
	}
	if total := a.TotalPages(); total != 2 {
		t.Fatalf("TotalPages = %d, want 2", total)
	}
	if err := a.DeleteFile(f); err != nil {
		t.Fatal(err)
	}
	if err := a.ReadPageCtx(context.Background(), f, 0, buf); !errors.Is(err, ErrNoSuchFile) {
		t.Fatalf("read of deleted file: %v, want ErrNoSuchFile", err)
	}
	if err := a.ReadPageCtx(context.Background(), InvalidFile, 0, buf); !errors.Is(err, ErrNoSuchFile) {
		t.Fatalf("read of InvalidFile: %v, want ErrNoSuchFile", err)
	}
}

// TestArrayStatsAndClock checks that Stats sums members while Clock takes
// the critical path, and that resets and drops fan out to every member.
func TestArrayStatsAndClock(t *testing.T) {
	cost := CostModel{Seek: 10 * time.Millisecond, Transfer: time.Millisecond}
	a := NewDeviceArray(cost, 0, 2, 1, nil)
	f0 := a.CreateFileInGroup("m0", "") // member 0
	f1 := a.CreateFileInGroup("m1", "") // member 1
	for p := 0; p < 3; p++ {
		if _, err := a.AppendPageCtx(context.Background(), f0, page(1)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.AppendPageCtx(context.Background(), f1, page(2)); err != nil {
		t.Fatal(err)
	}
	a.ResetClock()
	a.ResetStats()
	buf := make([]byte, PageSize)
	for i := int64(0); i < 3; i++ {
		if err := a.ReadPageCtx(context.Background(), f0, i, buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.ReadPageCtx(context.Background(), f1, 0, buf); err != nil {
		t.Fatal(err)
	}
	// Member 0: seek + 3 transfers. Member 1: seek + 1 transfer. The array
	// clock is the busier member; the stats are the sum of both.
	if want := cost.Seek + 3*cost.Transfer; a.Clock() != want {
		t.Fatalf("array Clock = %v, want critical path %v", a.Clock(), want)
	}
	s := a.Stats()
	if s.PageReads != 4 || s.Seeks != 2 || s.SeqPages != 2 {
		t.Fatalf("array Stats = %+v, want 4 reads, 2 seeks, 2 seq", s)
	}
	per := a.DeviceStats()
	if len(per) != 2 || per[0].PageReads != 3 || per[1].PageReads != 1 {
		t.Fatalf("DeviceStats = %+v", per)
	}

	a.ResetStats()
	if s := a.Stats(); s.PageReads != 0 || s.Seeks != 0 {
		t.Fatalf("ResetStats left %+v", s)
	}
	a.ResetClock()
	if a.Clock() != 0 {
		t.Fatalf("ResetClock left %v", a.Clock())
	}
}

// TestArrayDropCachesEveryMemberChannel is the array half of the DropCaches
// regression: after a drop, the first read on every channel of every member
// pays a seek.
func TestArrayDropCachesEveryMemberChannel(t *testing.T) {
	a := NewDeviceArray(DefaultCostModel(), 128, 2, 2, nil)
	// One file per member per channel, 3 pages each.
	files := make(map[[2]int]FileID)
	for i := 0; len(files) < 4 && i < 128; i++ {
		id := a.CreateFileInGroup("f", "")
		dev, local := a.decode(id)
		ci := 0
		if dev.channelOf(local) == &dev.channels[1] {
			ci = 1
		}
		key := [2]int{a.MemberOf(id), ci}
		if _, dup := files[key]; dup {
			if err := a.DeleteFile(id); err != nil {
				t.Fatal(err)
			}
			continue
		}
		files[key] = id
		for p := 0; p < 3; p++ {
			if _, err := dev.AppendPageCtx(context.Background(), local, page(byte(p))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(files) != 4 {
		t.Fatal("could not cover every (member, channel) pair")
	}
	buf := make([]byte, PageSize)
	// Establish all four heads.
	for _, id := range files {
		for i := int64(0); i < 2; i++ {
			if err := a.ReadPageCtx(context.Background(), id, i, buf); err != nil {
				t.Fatal(err)
			}
		}
	}
	a.DropCaches()
	a.ResetStats()
	for _, id := range files {
		if err := a.ReadPageCtx(context.Background(), id, 2, buf); err != nil {
			t.Fatal(err)
		}
	}
	for di, chans := range a.DeviceChannelStats() {
		for _, c := range chans {
			if c.Seeks != 1 || c.SeqPages != 0 {
				t.Fatalf("post-drop member %d channel %d: %d seeks, %d seq; want exactly 1 seek",
					di, c.Channel, c.Seeks, c.SeqPages)
			}
		}
	}
	if s := a.Stats(); s.Seeks != 4 {
		t.Fatalf("post-drop total seeks = %d, want one per channel per member (4)", s.Seeks)
	}
}

// TestArrayCacheSplit checks the cache capacity is divided across members:
// one member's cache holds at most its share of the array total.
func TestArrayCacheSplit(t *testing.T) {
	a := NewDeviceArray(DefaultCostModel(), 64, 2, 1, nil)
	f := a.CreateFileInGroup("big", "") // member 0
	for p := 0; p < 40; p++ {
		if _, err := a.AppendPageCtx(context.Background(), f, page(byte(p))); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, PageSize)
	for i := int64(0); i < 40; i++ {
		if err := a.ReadPageCtx(context.Background(), f, i, buf); err != nil {
			t.Fatal(err)
		}
	}
	member := a.Members()[a.MemberOf(f)]
	if got := member.CachedPages(); got == 0 || got > 32 {
		t.Fatalf("member cached %d pages, want (0, 32] — half the array's 64", got)
	}
}
