package simdisk

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestArrayPlacementRoundRobin checks the stateful file-dealing policy and the
// FileID encoding round-trip.
func TestArrayPlacementRoundRobin(t *testing.T) {
	a := NewDeviceArray(DefaultCostModel(), 64, 3, 1, RoundRobin())
	var members []int
	for i := 0; i < 6; i++ {
		id := a.CreateFileInGroup("f", "")
		members = append(members, a.MemberOf(id))
		if name, err := a.FileName(id); err != nil || name != "f" {
			t.Fatalf("FileName(%d) = %q, %v", id, name, err)
		}
	}
	want := []int{0, 1, 2, 0, 1, 2}
	for i := range want {
		if members[i] != want[i] {
			t.Fatalf("round-robin placement = %v, want %v", members, want)
		}
	}
}

// TestArrayPlacementAffinity checks that files of one group co-locate and
// the policy is deterministic.
func TestArrayPlacementAffinity(t *testing.T) {
	a := NewDeviceArray(DefaultCostModel(), 64, 4, 1, GroupAffinity())
	g1a := a.CreateFileInGroup("ds3.raw", "ds3")
	g1b := a.CreateFileInGroup("ds3.raw.octree", "ds3")
	g1c := a.CreateFileInGroup("merge:3|5|7", "ds3")
	if m := a.MemberOf(g1a); a.MemberOf(g1b) != m || a.MemberOf(g1c) != m {
		t.Fatalf("group ds3 split across members %d/%d/%d",
			a.MemberOf(g1a), a.MemberOf(g1b), a.MemberOf(g1c))
	}
	// Different groups must be able to land elsewhere (spot-check that at
	// least two of a handful of groups differ — all-on-one would defeat
	// spreading files).
	seen := map[int]bool{}
	for _, g := range []string{"ds0", "ds1", "ds2", "ds3", "ds4", "ds5", "ds6", "ds7"} {
		seen[a.MemberOf(a.CreateFileInGroup(g+".raw", g))] = true
	}
	if len(seen) < 2 {
		t.Fatalf("affinity policy placed 8 groups on %d member(s)", len(seen))
	}
}

// TestArrayFileOps drives the whole Storage surface through an array and
// cross-checks against per-member state.
func TestArrayFileOps(t *testing.T) {
	a := NewDeviceArray(DefaultCostModel(), 64, 2, 2, RoundRobin())
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
	a := NewDeviceArray(cost, 0, 2, 1, RoundRobin())
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
	a := NewDeviceArray(DefaultCostModel(), 128, 2, 2, RoundRobin())
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
	a := NewDeviceArray(DefaultCostModel(), 64, 2, 1, RoundRobin())
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
