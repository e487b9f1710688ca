package simdisk

import (
	"bytes"
	"context"
	"errors"
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

// TestAppendAllocatesPerChunk: appended pages are carved from chunks that grow
// with the file, so N appends cost O(N/maxChunkPages) allocations, not N; the
// chunk the file ends in is never more than a 64th of it (or one page); and a
// stored page still shares nothing with its neighbours or the caller's buffer.
func TestAppendAllocatesPerChunk(t *testing.T) {
	const pages = 4096
	d := NewDevice(CostModel{}, 0)
	id := d.CreateFileInGroup("f", "")
	data := make([]byte, PageSize)
	ctx := context.Background()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for p := 0; p < pages; p++ {
		data[0], data[PageSize-1] = byte(p), byte(p>>8)
		if _, err := d.AppendPageCtx(ctx, id, data); err != nil {
			t.Fatal(err)
		}
		if f := d.files[id]; len(f.chunk) > PageSize*max(len(f.pages)/chunkGrowth, 1) {
			t.Fatalf("after %d pages the file holds %d unused bytes", len(f.pages), len(f.chunk))
		}
	}
	runtime.ReadMemStats(&after)
	// 128 one-page chunks, then 64 of each size from 2 to 32 — 448 — plus the
	// growth of f.pages; from 2,048 pages on it is one allocation per 32.
	if n := after.Mallocs - before.Mallocs; n > pages/8 {
		t.Errorf("%d appends made %d allocations, want at most %d (one per chunk)", pages, n, pages/8)
	}
	data[0], data[PageSize-1] = 0xEE, 0xEE // the device kept copies
	buf := make([]byte, PageSize)
	for p := 0; p < pages; p++ {
		if _, err := d.readPage(ctx, id, int64(p), buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != byte(p) || buf[PageSize-1] != byte(p>>8) {
			t.Fatalf("page %d reads back %#x..%#x", p, buf[0], buf[PageSize-1])
		}
	}
	// Overwriting one page in place leaves its chunk neighbours alone.
	clear(data)
	if err := d.WritePageCtx(ctx, id, 3000, data); err != nil {
		t.Fatal(err)
	}
	for _, p := range []int64{2999, 3001} {
		if _, err := d.readPage(ctx, id, p, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != byte(p) || buf[PageSize-1] != byte(p>>8) {
			t.Fatalf("page %d changed when page 3000 was overwritten", p)
		}
	}
}
