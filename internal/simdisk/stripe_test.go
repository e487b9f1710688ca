package simdisk

import (
	"bytes"
	"context"
	"errors"
	"testing"
)

func stripeArray(t *testing.T, devices int, chunk int64) *DeviceArray {
	t.Helper()
	a := NewDeviceArray(DefaultCostModel(), 64, devices, 1, PageStripe(chunk))
	t.Cleanup(func() { a.Close() })
	return a
}

func pageOf(b byte) []byte {
	p := make([]byte, PageSize)
	for i := range p {
		p[i] = b
	}
	return p
}

// TestPageStripeRoundTrip pins the basic contract: appends return dense
// global indices, every page reads back byte-identical via ReadPage, and
// the chunk mapping actually spreads the file across all members.
func TestPageStripeRoundTrip(t *testing.T) {
	const devices, chunk, pages = 3, 2, 13
	a := stripeArray(t, devices, chunk)
	id := a.CreateFileInGroup("striped.raw", "")
	if id == InvalidFile {
		t.Fatal("CreateFile returned InvalidFile")
	}
	if id&stripeTag == 0 {
		t.Fatalf("striped id %d missing the stripe tag", id)
	}
	for i := 0; i < pages; i++ {
		idx, err := a.AppendPageCtx(context.Background(), id, pageOf(byte(i)))
		if err != nil {
			t.Fatal(err)
		}
		if idx != int64(i) {
			t.Fatalf("append %d returned global index %d", i, idx)
		}
	}
	if n, err := a.NumPages(id); err != nil || n != pages {
		t.Fatalf("NumPages = %d, %v; want %d", n, err, pages)
	}
	buf := make([]byte, PageSize)
	for i := 0; i < pages; i++ {
		if err := a.ReadPageCtx(context.Background(), id, int64(i), buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, pageOf(byte(i))) {
			t.Fatalf("page %d read back wrong content %d", i, buf[0])
		}
	}
	// 13 pages in chunks of 2 over 3 members: every member holds a share.
	for m, dev := range a.Members() {
		if dev.TotalPages() == 0 {
			t.Fatalf("member %d holds no pages of the striped file", m)
		}
	}
	if name, err := a.FileName(id); err != nil || name != "striped.raw" {
		t.Fatalf("FileName = %q, %v", name, err)
	}
}

// TestPageStripeReadRunCrossesChunks pins the scatter/gather path: a run
// spanning several chunks (with partial first and last chunks) reassembles
// into exactly the bytes a page-by-page read returns.
func TestPageStripeReadRunCrossesChunks(t *testing.T) {
	const devices, chunk, pages = 2, 4, 40
	a := stripeArray(t, devices, chunk)
	id := a.CreateFileInGroup("run.raw", "")
	for i := 0; i < pages; i++ {
		if _, err := a.AppendPageCtx(context.Background(), id, pageOf(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	for _, run := range [][2]int64{{0, 40}, {3, 9}, {5, 1}, {7, 25}, {36, 4}, {0, 0}} {
		start, n := run[0], run[1]
		got, err := a.ReadRunCtx(context.Background(), id, start, n)
		if err != nil {
			t.Fatalf("ReadRun(%d,%d): %v", start, n, err)
		}
		want := make([]byte, 0, n*PageSize)
		for p := start; p < start+n; p++ {
			want = append(want, pageOf(byte(p))...)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("ReadRun(%d,%d) reassembled wrong bytes", start, n)
		}
	}
	if _, err := a.ReadRunCtx(context.Background(), id, 38, 4); err == nil {
		t.Fatal("ReadRun past EOF succeeded")
	}
}

// TestPageStripeWriteAndDelete pins in-place overwrite routing and the
// all-members delete.
func TestPageStripeWriteAndDelete(t *testing.T) {
	a := stripeArray(t, 3, 2)
	id := a.CreateFileInGroup("w.raw", "")
	for i := 0; i < 9; i++ {
		if _, err := a.AppendPageCtx(context.Background(), id, pageOf(0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.WritePageCtx(context.Background(), id, 5, pageOf(0xAB)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, PageSize)
	if err := a.ReadPageCtx(context.Background(), id, 5, buf); err != nil || buf[0] != 0xAB {
		t.Fatalf("overwritten page 5 reads %d, %v", buf[0], err)
	}
	if err := a.ReadPageCtx(context.Background(), id, 4, buf); err != nil || buf[0] != 0 {
		t.Fatalf("neighbour page 4 disturbed: %d, %v", buf[0], err)
	}
	if err := a.DeleteFile(id); err != nil {
		t.Fatal(err)
	}
	if _, err := a.NumPages(id); !errors.Is(err, ErrNoSuchFile) {
		t.Fatalf("NumPages after delete: %v, want ErrNoSuchFile", err)
	}
	for m, dev := range a.Members() {
		if dev.TotalPages() != 0 {
			t.Fatalf("member %d still holds pages after delete", m)
		}
	}
}

// TestPageStripeFaultInjection pins global-page fault routing: a fault
// armed on a global index fires on the read of exactly that page.
func TestPageStripeFaultInjection(t *testing.T) {
	a := stripeArray(t, 2, 2)
	id := a.CreateFileInGroup("f.raw", "")
	for i := 0; i < 8; i++ {
		if _, err := a.AppendPageCtx(context.Background(), id, pageOf(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	boom := errors.New("boom")
	a.InjectReadFault(id, 6, boom)
	buf := make([]byte, PageSize)
	if err := a.ReadPageCtx(context.Background(), id, 5, buf); err != nil {
		t.Fatalf("unfaulted page errored: %v", err)
	}
	if err := a.ReadPageCtx(context.Background(), id, 6, buf); !errors.Is(err, boom) {
		t.Fatalf("faulted page 6: %v, want boom", err)
	}
	if err := a.ReadPageCtx(context.Background(), id, 6, buf); err != nil {
		t.Fatalf("one-shot fault did not clear: %v", err)
	}
}
