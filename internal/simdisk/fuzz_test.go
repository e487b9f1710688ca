package simdisk

import (
	"bytes"
	"context"
	"sync"
	"testing"
)

// FuzzLRU drives the sharded page cache from several goroutines with a
// fuzzer-chosen operation tape and capacity, then checks the capacity
// invariant and that the structure is still coherent. Run under -race this
// doubles as a locking fuzz for the shard discipline.
func FuzzLRU(f *testing.F) {
	f.Add(uint16(4), []byte{0, 1, 2, 3, 250, 251, 4, 5})
	f.Add(uint16(0), []byte{9, 9, 9})
	f.Add(uint16(300), []byte{1, 3, 5, 7, 11, 13, 17, 19, 23, 255, 254, 253})
	f.Add(uint16(1024), []byte("the quick brown fox jumps over the lazy disk"))
	f.Fuzz(func(t *testing.T, capacity uint16, tape []byte) {
		cache := newShardedCache(int(capacity))
		const workers = 4
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Each worker reads the shared tape at its own stride so
				// goroutines race over overlapping key sets.
				for i := w; i < len(tape); i += 1 + w%2 {
					op := tape[i]
					key := pageKey{FileID(op % 5), int64(op / 3)}
					switch op % 4 {
					case 0:
						cache.Touch(key)
					case 1:
						cache.Insert(key)
					case 2:
						if cache.Touch(key) {
							continue
						}
						// A just-missed key was inserted by Touch; with
						// capacity > 0 it must be present immediately
						// after, unless a racing eviction removed it —
						// only Len()'s bound is guaranteed.
					case 3:
						cache.RemoveFile(FileID(op % 5))
					}
				}
			}()
		}
		wg.Wait()
		if got, capi := cache.Len(), int(capacity); got > capi {
			t.Fatalf("cache holds %d pages, capacity %d", got, capi)
		}
		// The per-shard structures must still be internally consistent:
		// walking each shard's list visits exactly its mapped entries, and
		// every other slot is free (lruCache.order).
		for si, s := range cache.shards {
			s.mu.Lock()
			_, err := s.lru.order()
			s.mu.Unlock()
			if err != nil {
				t.Fatalf("shard %d: %v", si, err)
			}
		}
	})
}

// FuzzStoredPage: the device stores a page up to its last non-zero 64-byte
// block and a read restores the zero tail, so every page comes back byte for
// byte — through ReadPageCtx into a buffer of 0xFF, through ReadRunCtx into a
// pooled buffer last filled with 0xFF, and after an in-place rewrite that
// grows the page past its slot or shrinks it within it. The page is body
// repeated, then a zero tail of tail bytes (mod PageSize+1) whose first
// preceding byte is non-zero.
func FuzzStoredPage(f *testing.F) {
	body := []byte{0x5D, 0, 7, 0, 0, 0, 0, 0, 0xFF}
	for _, tail := range []uint16{0, 1, 63, 64, 65, PageSize} {
		f.Add(body, tail)
	}
	lastOnly := make([]byte, PageSize) // the only non-zero byte is the last
	lastOnly[PageSize-1] = 1
	f.Add(lastOnly, uint16(0))
	f.Add([]byte{}, uint16(100))
	f.Fuzz(func(t *testing.T, body []byte, tail uint16) {
		pg := storedPage(body, PageSize-int(tail)%(PageSize+1))
		d := NewDevice(CostModel{}, 4)
		id := d.CreateFileInGroup("f", "")
		ctx := context.Background()
		for range 2 { // page 1 is page 0's neighbour in its chunk
			if _, err := d.AppendPageCtx(ctx, id, pg); err != nil {
				t.Fatal(err)
			}
		}
		check := func(what string, idx int64, want []byte) {
			t.Helper()
			buf := bytes.Repeat([]byte{0xFF}, PageSize)
			if err := d.ReadPageCtx(ctx, id, idx, buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf, want) {
				t.Fatalf("%s: ReadPageCtx of page %d differs from what was written", what, idx)
			}
			stale := getRunBuf(2)
			for i := range stale {
				stale[i] = 0xFF
			}
			PutRunBuf(stale)
			run, err := d.ReadRunCtx(ctx, id, idx, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(run, want) {
				t.Fatalf("%s: ReadRunCtx of page %d differs from what was written", what, idx)
			}
			PutRunBuf(run)
		}
		check("append", 0, pg)
		used := usedLen(pg)
		longer := storedPage(body, min(used+blockSize, PageSize))
		shorter := storedPage(body, used/2)
		for _, w := range []struct {
			what string
			pg   []byte
		}{{"longer rewrite", longer}, {"shorter rewrite", shorter}} {
			if err := d.WritePageCtx(ctx, id, 0, w.pg); err != nil {
				t.Fatal(err)
			}
			check(w.what, 0, w.pg)
			check(w.what+", neighbour", 1, pg)
		}
	})
}

// storedPage is a page of body repeated over its first n bytes, the n-th of
// them made non-zero, then zeros.
func storedPage(body []byte, n int) []byte {
	pg := make([]byte, PageSize)
	if len(body) > 0 {
		for i := range pg[:n] {
			pg[i] = body[i%len(body)]
		}
	}
	if n > 0 && pg[n-1] == 0 {
		pg[n-1] = 1
	}
	return pg
}

// FuzzLRUSequential checks exact single-threaded semantics the sharded
// wrapper must preserve: a just-touched key is cached (capacity permitting)
// and hits are counted.
func FuzzLRUSequential(f *testing.F) {
	f.Add(uint16(2), []byte{1, 2, 3, 1, 2, 3})
	f.Add(uint16(600), []byte{10, 20, 10, 20, 30})
	f.Fuzz(func(t *testing.T, capacity uint16, tape []byte) {
		cache := newShardedCache(int(capacity))
		var wantHits int64
		for _, op := range tape {
			key := pageKey{FileID(op % 3), int64(op / 2)}
			if cache.Touch(key) {
				wantHits++
			} else if capacity > 0 {
				if !cache.Touch(key) {
					t.Fatalf("key %v absent right after miss-insert", key)
				}
				wantHits++
			}
			if cache.Len() > int(capacity) {
				t.Fatalf("len %d over capacity %d", cache.Len(), capacity)
			}
		}
		if got := cache.Hits(); got != wantHits {
			t.Fatalf("per-shard hit counters sum to %d, want %d", got, wantHits)
		}
	})
}
