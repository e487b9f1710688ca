package simdisk

import (
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
