package simdisk

import (
	"context"
	"sync"
	"testing"
)

// TestConcurrentAccess hammers a device from many goroutines; run with
// -race to verify the locking discipline. Engines are single-threaded like
// the paper's, but the device promises thread safety.
func TestConcurrentAccess(t *testing.T) {
	d := NewDeviceChannels(DefaultCostModel(), 32, 1)
	f := d.CreateFileInGroup("shared", "")
	for i := 0; i < 64; i++ {
		if _, err := d.AppendPageCtx(context.Background(), f, page(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, PageSize)
			for i := 0; i < 200; i++ {
				idx := int64((g*31 + i) % 64)
				switch i % 5 {
				case 0:
					if err := d.ReadPageCtx(context.Background(), f, idx, buf); err != nil {
						t.Error(err)
						return
					}
				case 1:
					if err := d.WritePageCtx(context.Background(), f, idx, page(byte(i))); err != nil {
						t.Error(err)
						return
					}
				case 2:
					d.Clock()
					d.Stats()
				case 3:
					d.cache.Len()
					d.TotalPages()
				case 4:
					if i%50 == 4 {
						d.DropCaches()
					}
				}
			}
		}()
	}
	wg.Wait()
	st := d.Stats()
	if st.PageReads+st.CacheHits == 0 || st.PageWrites == 0 {
		t.Fatalf("no activity recorded: %+v", st)
	}
}

// TestConcurrentFileCreation checks file-id allocation under contention.
func TestConcurrentFileCreation(t *testing.T) {
	d := NewDeviceChannels(DefaultCostModel(), 0, 1)
	var wg sync.WaitGroup
	ids := make(chan FileID, 100)
	for g := 0; g < 10; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				ids <- d.CreateFileInGroup("f", "")
			}
		}()
	}
	wg.Wait()
	close(ids)
	seen := map[FileID]bool{}
	for id := range ids {
		if seen[id] {
			t.Fatalf("duplicate file id %d", id)
		}
		seen[id] = true
	}
	if len(seen) != 100 {
		t.Fatalf("%d unique ids", len(seen))
	}
}
