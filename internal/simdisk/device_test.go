package simdisk

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"testing"
	"time"
)

func page(fill byte) []byte {
	p := make([]byte, PageSize)
	for i := range p {
		p[i] = fill
	}
	return p
}

func TestCreateWriteRead(t *testing.T) {
	d := NewDefaultDevice(16)
	f := d.CreateFileInGroup("data", "")
	idx, err := d.AppendPageCtx(context.Background(), f, page(0xAB))
	if err != nil {
		t.Fatal(err)
	}
	if idx != 0 {
		t.Fatalf("first append idx = %d", idx)
	}
	buf := make([]byte, PageSize)
	if err := d.ReadPageCtx(context.Background(), f, 0, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, page(0xAB)) {
		t.Fatal("read data mismatch")
	}
	if n, _ := d.NumPages(f); n != 1 {
		t.Fatalf("NumPages = %d", n)
	}
	name, err := d.FileName(f)
	if err != nil || name != "data" {
		t.Fatalf("FileName = %q, %v", name, err)
	}
}

func TestWriteInPlace(t *testing.T) {
	d := NewDefaultDevice(16)
	f := d.CreateFileInGroup("data", "")
	if _, err := d.AppendPageCtx(context.Background(), f, page(1)); err != nil {
		t.Fatal(err)
	}
	if err := d.WritePageCtx(context.Background(), f, 0, page(2)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, PageSize)
	if err := d.ReadPageCtx(context.Background(), f, 0, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 2 {
		t.Fatalf("in-place write not visible, got %d", buf[0])
	}
}

func TestErrors(t *testing.T) {
	d := NewDefaultDevice(16)
	f := d.CreateFileInGroup("data", "")
	buf := make([]byte, PageSize)

	if err := d.ReadPageCtx(context.Background(), FileID(999), 0, buf); !errors.Is(err, ErrNoSuchFile) {
		t.Errorf("read unknown file: %v", err)
	}
	if err := d.ReadPageCtx(context.Background(), f, 0, buf); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("read past EOF: %v", err)
	}
	if err := d.ReadPageCtx(context.Background(), f, -1, buf); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("read negative idx: %v", err)
	}
	if err := d.ReadPageCtx(context.Background(), f, 0, make([]byte, 10)); !errors.Is(err, ErrBadPageSize) {
		t.Errorf("short buffer: %v", err)
	}
	if _, err := d.AppendPageCtx(context.Background(), f, make([]byte, 10)); !errors.Is(err, ErrBadPageSize) {
		t.Errorf("short append: %v", err)
	}
	if err := d.WritePageCtx(context.Background(), f, 5, page(0)); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("write past EOF: %v", err)
	}
	if err := d.DeleteFile(FileID(999)); !errors.Is(err, ErrNoSuchFile) {
		t.Errorf("delete unknown file: %v", err)
	}
}

func TestDeleteFile(t *testing.T) {
	d := NewDefaultDevice(16)
	f := d.CreateFileInGroup("data", "")
	if _, err := d.AppendPageCtx(context.Background(), f, page(1)); err != nil {
		t.Fatal(err)
	}
	if err := d.DeleteFile(f); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, PageSize)
	if err := d.ReadPageCtx(context.Background(), f, 0, buf); !errors.Is(err, ErrNoSuchFile) {
		t.Errorf("read deleted file: %v", err)
	}
	if d.TotalPages() != 0 {
		t.Errorf("TotalPages after delete = %d", d.TotalPages())
	}
}

func TestSequentialVsRandomCost(t *testing.T) {
	cost := CostModel{Seek: time.Millisecond, Transfer: time.Microsecond}
	d := NewDevice(cost, 0) // no cache
	f := d.CreateFileInGroup("data", "")
	for i := 0; i < 10; i++ {
		if _, err := d.AppendPageCtx(context.Background(), f, page(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Appends: first pays a seek, the rest are sequential.
	wantBuild := cost.Seek + 10*cost.Transfer
	if got := d.Clock(); got != wantBuild {
		t.Fatalf("build clock = %v, want %v", got, wantBuild)
	}

	d.ResetClock()
	buf := make([]byte, PageSize)
	// Sequential scan of all 10 pages: the first read follows the last
	// append (page 9), so it pays a seek; the rest stream.
	for i := int64(0); i < 10; i++ {
		if err := d.ReadPageCtx(context.Background(), f, i, buf); err != nil {
			t.Fatal(err)
		}
	}
	wantScan := cost.Seek + 10*cost.Transfer
	if got := d.Clock(); got != wantScan {
		t.Fatalf("sequential scan clock = %v, want %v", got, wantScan)
	}

	d.ResetClock()
	// Random reads: every one seeks.
	for _, i := range []int64{5, 2, 8, 1} {
		if err := d.ReadPageCtx(context.Background(), f, i, buf); err != nil {
			t.Fatal(err)
		}
	}
	wantRandom := 4 * (cost.Seek + cost.Transfer)
	if got := d.Clock(); got != wantRandom {
		t.Fatalf("random read clock = %v, want %v", got, wantRandom)
	}
}

func TestCacheHitsAreCheap(t *testing.T) {
	cost := CostModel{Seek: time.Millisecond, Transfer: time.Microsecond, CacheHit: time.Nanosecond}
	d := NewDevice(cost, 8)
	f := d.CreateFileInGroup("data", "")
	if _, err := d.AppendPageCtx(context.Background(), f, page(1)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, PageSize)
	// Append populated the cache; this read is a hit.
	d.ResetClock()
	if err := d.ReadPageCtx(context.Background(), f, 0, buf); err != nil {
		t.Fatal(err)
	}
	if got := d.Clock(); got != cost.CacheHit {
		t.Fatalf("cache-hit clock = %v, want %v", got, cost.CacheHit)
	}
	st := d.Stats()
	if st.CacheHits != 1 {
		t.Fatalf("CacheHits = %d", st.CacheHits)
	}

	// Dropping caches forces platter reads again.
	d.DropCaches()
	d.ResetClock()
	if err := d.ReadPageCtx(context.Background(), f, 0, buf); err != nil {
		t.Fatal(err)
	}
	if got := d.Clock(); got != cost.Seek+cost.Transfer {
		t.Fatalf("post-drop clock = %v", got)
	}
}

func TestCacheEviction(t *testing.T) {
	d := NewDevice(CostModel{Seek: 1, Transfer: 1, CacheHit: 0}, 2)
	f := d.CreateFileInGroup("data", "")
	for i := 0; i < 3; i++ {
		if _, err := d.AppendPageCtx(context.Background(), f, page(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Cache capacity 2: appends of pages 0,1,2 leave {1,2} cached.
	if got := d.CachedPages(); got != 2 {
		t.Fatalf("CachedPages = %d", got)
	}
	buf := make([]byte, PageSize)
	if err := d.ReadPageCtx(context.Background(), f, 0, buf); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.CacheHits != 0 {
		t.Fatalf("page 0 should have been evicted; hits = %d", st.CacheHits)
	}
}

func TestReadRun(t *testing.T) {
	d := NewDefaultDevice(0)
	f := d.CreateFileInGroup("data", "")
	for i := 0; i < 4; i++ {
		if _, err := d.AppendPageCtx(context.Background(), f, page(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	buf, err := d.ReadRunCtx(context.Background(), f, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != 2*PageSize || buf[0] != 1 || buf[PageSize] != 2 {
		t.Fatal("ReadRun returned wrong data")
	}
	if _, err := d.ReadRunCtx(context.Background(), f, 3, 2); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("ReadRun past EOF: %v", err)
	}
	if _, err := d.ReadRunCtx(context.Background(), f, 0, -1); err == nil {
		t.Error("ReadRun negative length succeeded")
	}
}

func TestStatsAccounting(t *testing.T) {
	d := NewDevice(CostModel{Seek: 1, Transfer: 1}, 4)
	f := d.CreateFileInGroup("data", "")
	for i := 0; i < 3; i++ {
		if _, err := d.AppendPageCtx(context.Background(), f, page(0)); err != nil {
			t.Fatal(err)
		}
	}
	d.DropCaches()
	buf := make([]byte, PageSize)
	for i := int64(0); i < 3; i++ {
		if err := d.ReadPageCtx(context.Background(), f, i, buf); err != nil {
			t.Fatal(err)
		}
	}
	st := d.Stats()
	if st.PageWrites != 3 || st.PageReads != 3 {
		t.Fatalf("stats = %+v", st)
	}
	if st.BytesRead != 3*PageSize || st.BytesWritten != 3*PageSize {
		t.Fatalf("byte stats = %+v", st)
	}
	// writes: 1 seek + 2 seq; reads after drop: 1 seek + 2 seq
	if st.Seeks != 2 || st.SeqPages != 4 {
		t.Fatalf("seek stats = %+v", st)
	}
	d.ResetStats()
	if d.Stats() != (Stats{}) {
		t.Fatal("ResetStats did not zero")
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{PageReads: 1, PageWrites: 2, CacheHits: 3, Seeks: 4, SeqPages: 5, BytesRead: 6, BytesWritten: 7}
	b := a
	a.Add(b)
	want := Stats{PageReads: 2, PageWrites: 4, CacheHits: 6, Seeks: 8, SeqPages: 10, BytesRead: 12, BytesWritten: 14}
	if a != want {
		t.Fatalf("Add = %+v", a)
	}
}

func TestDefaultAndSSDCostModels(t *testing.T) {
	if err := DefaultCostModel().Validate(); err != nil {
		t.Error(err)
	}
	if err := SSDCostModel().Validate(); err != nil {
		t.Error(err)
	}
	bad := CostModel{Seek: -1}
	if err := bad.Validate(); err == nil {
		t.Error("negative cost validated")
	}
	if DefaultCostModel().Seek <= SSDCostModel().Seek {
		t.Error("SAS seek should exceed SSD seek")
	}
}

func TestWriteIsolation(t *testing.T) {
	// The device must copy page data on write so callers can reuse buffers.
	d := NewDefaultDevice(4)
	f := d.CreateFileInGroup("data", "")
	buf := page(1)
	if _, err := d.AppendPageCtx(context.Background(), f, buf); err != nil {
		t.Fatal(err)
	}
	buf[0] = 99 // mutate caller buffer
	out := make([]byte, PageSize)
	if err := d.ReadPageCtx(context.Background(), f, 0, out); err != nil {
		t.Fatal(err)
	}
	if out[0] != 1 {
		t.Fatal("device aliased caller buffer")
	}
}

// TestAppendAllocatesPerChunk: a file of pages of k records each holds what
// its pages hold and little more. Each slot is within 64 B of its page's used
// bytes; the last chunk's unused end is under a 64th of the stored bytes (or
// one page) and under 128 KB; the appends allocate one chunk at a time, as
// many as the byte policy cuts; and a stored page still shares nothing with
// its neighbours or the caller's buffer.
func TestAppendAllocatesPerChunk(t *testing.T) {
	const pages = 4096
	for _, k := range []int{0, 1, 10, 63} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			d := NewDevice(CostModel{}, 0)
			id := d.CreateFileInGroup("f", "")
			f := d.files[id]
			data := make([]byte, PageSize)
			ctx := context.Background()
			var stored int
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for p := 0; p < pages; p++ {
				recordPage(data, k, p)
				if _, err := d.AppendPageCtx(ctx, id, data); err != nil {
					t.Fatal(err)
				}
				stored += cap(f.pages[p])
				if len(f.chunk) >= max(stored/64, PageSize) || len(f.chunk) >= 128<<10 {
					t.Fatalf("after %d pages (%d B stored) the file holds %d unused bytes", p+1, stored, len(f.chunk))
				}
			}
			runtime.ReadMemStats(&after)
			used := recordPage(data, k, 0)
			if stored > pages*(used+64) {
				t.Errorf("%d pages of %d used bytes are stored in %d B of slots, want at most %d", pages, used, stored, pages*(used+64))
			}
			// For k = 63, 128 4 KB chunks, then 64 of each size from 8 KB to
			// 128 KB: 448. Beyond them, the growth of f.pages.
			chunks := policyChunks(pages, cap(f.pages[0]))
			if n := int(after.Mallocs - before.Mallocs); n < chunks || n > chunks+64 {
				t.Errorf("%d appends made %d allocations, want %d chunks and the growth of the page list", pages, n, chunks)
			}
			clear(data) // the device kept copies
			buf := make([]byte, PageSize)
			readBack := func(p int) {
				t.Helper()
				if _, err := d.readPage(ctx, id, int64(p), buf); err != nil {
					t.Fatal(err)
				}
				if recordPage(data, k, p); !bytes.Equal(buf, data) {
					t.Fatalf("page %d reads back changed", p)
				}
			}
			for p := 0; p < pages; p++ {
				readBack(p)
			}
			// Rewriting one page empty, then full (a grow for k < 63), leaves
			// its chunk neighbours alone.
			want := make([]byte, PageSize)
			for _, full := range []bool{false, true} {
				if clear(want); full {
					recordPage(want, 63, 3000)
				}
				if err := d.WritePageCtx(ctx, id, 3000, want); err != nil {
					t.Fatal(err)
				}
				if _, err := d.readPage(ctx, id, 3000, buf); err != nil || !bytes.Equal(buf, want) {
					t.Fatalf("rewritten page 3000 (full %v) reads back changed: %v", full, err)
				}
				readBack(2999)
				readBack(3001)
			}
		})
	}
}

// recordPage fills data as a page of k records: a 16-byte header and k
// 64-byte records, no byte of them zero, then zeros. It returns the bytes the
// page holds.
func recordPage(data []byte, k, p int) int {
	used := 16 + 64*k
	for i := range data[:used] {
		data[i] = byte(p+i) | 1
	}
	clear(data[used:])
	return used
}

// policyChunks is how many chunks the byte policy cuts for n slots of slot
// bytes each: a chunk is a 64th of the bytes stored before it, rounded down
// to a power of two from 4 KB to 128 KB, and holds as many whole slots as fit.
func policyChunks(n, slot int) int {
	chunks := 0
	for stored := 0; n > 0; chunks++ {
		size := min(max(stored/64, 4<<10), 128<<10)
		fit := min((1<<(bits.Len(uint(size))-1))/slot, n)
		stored += fit * slot
		n -= fit
	}
	return chunks
}
