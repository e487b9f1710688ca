package simdisk

import (
	"math/rand"
	"testing"
)

func k(f, p int) pageKey { return pageKey{FileID(f), int64(p)} }

func TestLRUInsertContains(t *testing.T) {
	c := newLRUCache(2)
	c.Insert(k(1, 0))
	c.Insert(k(1, 1))
	if !c.Contains(k(1, 0)) || !c.Contains(k(1, 1)) {
		t.Fatal("inserted keys missing")
	}
	if c.Contains(k(1, 2)) {
		t.Fatal("phantom key present")
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	c := newLRUCache(2)
	c.Insert(k(1, 0))
	c.Insert(k(1, 1))
	c.Insert(k(1, 2)) // evicts 0
	if c.Contains(k(1, 0)) {
		t.Fatal("LRU victim still present")
	}
	// Touch 1 so 2 becomes LRU.
	if !c.Contains(k(1, 1)) {
		t.Fatal("key 1 missing")
	}
	c.Insert(k(1, 3)) // evicts 2
	if c.Contains(k(1, 2)) {
		t.Fatal("key 2 should have been evicted")
	}
	if !c.Contains(k(1, 1)) || !c.Contains(k(1, 3)) {
		t.Fatal("wrong survivors")
	}
}

func TestLRUReinsertMovesToFront(t *testing.T) {
	c := newLRUCache(2)
	c.Insert(k(1, 0))
	c.Insert(k(1, 1))
	c.Insert(k(1, 0)) // refresh 0; 1 is now LRU
	c.Insert(k(1, 2)) // evicts 1
	if c.Contains(k(1, 1)) {
		t.Fatal("key 1 should have been evicted")
	}
	if !c.Contains(k(1, 0)) {
		t.Fatal("refreshed key evicted")
	}
}

func TestLRURemoveAndRemoveFile(t *testing.T) {
	c := newLRUCache(10)
	c.Insert(k(1, 0))
	c.Insert(k(1, 1))
	c.Insert(k(2, 0))
	c.Remove(k(1, 0))
	if c.Contains(k(1, 0)) {
		t.Fatal("removed key present")
	}
	c.RemoveFile(FileID(1))
	if c.Contains(k(1, 1)) {
		t.Fatal("file pages not removed")
	}
	if !c.Contains(k(2, 0)) {
		t.Fatal("unrelated file page removed")
	}
	c.Remove(k(9, 9)) // no-op must not panic
}

func TestLRUZeroCapacityDisables(t *testing.T) {
	c := newLRUCache(0)
	c.Insert(k(1, 0))
	if c.Len() != 0 {
		t.Fatal("zero-capacity cache stored a key")
	}
}

func TestLRUClear(t *testing.T) {
	c := newLRUCache(4)
	for i := 0; i < 4; i++ {
		c.Insert(k(1, i))
	}
	c.Clear()
	if c.Len() != 0 {
		t.Fatal("Clear left entries")
	}
	// Cache still usable after clear.
	c.Insert(k(1, 0))
	if !c.Contains(k(1, 0)) {
		t.Fatal("insert after clear failed")
	}
}

// Property: cache never exceeds capacity and the most recently inserted key
// is always present (capacity >= 1).
func TestLRUCapacityInvariantProperty(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		cap := 1 + r.Intn(8)
		c := newLRUCache(cap)
		for op := 0; op < 500; op++ {
			key := k(r.Intn(3), r.Intn(20))
			switch r.Intn(4) {
			case 0, 1:
				c.Insert(key)
				if !c.Contains(key) {
					t.Fatalf("just-inserted key absent (cap=%d)", cap)
				}
			case 2:
				c.Contains(key)
			case 3:
				c.Remove(key)
			}
			if c.Len() > cap {
				t.Fatalf("cache size %d exceeds capacity %d", c.Len(), cap)
			}
		}
	}
}

// Property: the linked list and the map stay consistent — walking the list
// from head visits exactly the mapped entries (see lruCache.order).
func TestLRUListMapConsistencyProperty(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	c := newLRUCache(6)
	for op := 0; op < 2000; op++ {
		key := k(r.Intn(2), r.Intn(12))
		switch r.Intn(3) {
		case 0:
			c.Insert(key)
		case 1:
			c.Contains(key)
		case 2:
			c.Remove(key)
		}
		if _, err := c.order(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPageCacheDoesNotAllocate: once a cache has been filled, the read path's
// Touch (hits, and misses that evict), the write path's Insert and the
// per-query Clear followed by a refill all run in the slots and the map the
// cache already has. (AllocsPerRun rounds down, which forgives what is left:
// the map re-hashing its tombstones, measured at 32 allocations in 2 M
// evicting touches.)
func TestPageCacheDoesNotAllocate(t *testing.T) {
	const capacity = 1024 // eight shards, as in the benchmark's configuration
	c := newShardedCache(capacity)
	sweep := func(file FileID, pages int) {
		for p := 0; p < pages; p++ {
			c.Touch(pageKey{file, int64(p)})
		}
	}
	sweep(1, 3*capacity) // fill every shard, and evict
	for name, op := range map[string]func(){
		"Touch (hit)":            func() { c.Touch(pageKey{1, 3*capacity - 1}) },
		"Touch (miss, evicting)": func() { sweep(2, 64); sweep(3, 64) },
		"Insert (evicting)":      func() { c.Insert(pageKey{4, 1}); c.Insert(pageKey{5, 1}) },
		"Clear and refill":       func() { c.Clear(); sweep(1, capacity/2) },
	} {
		if n := testing.AllocsPerRun(50, op); n != 0 {
			t.Errorf("%s: %v allocations, want 0", name, n)
		}
	}
}

// BenchmarkPageCacheTouch is the buffer cache's share of a cold query: clear,
// then touch a few hundred pages, missing each.
func BenchmarkPageCacheTouch(b *testing.B) {
	c := newShardedCache(1024)
	const pages = 256
	b.ReportAllocs()
	for b.Loop() {
		c.Clear()
		for p := int64(0); p < pages; p++ {
			c.Touch(pageKey{1, p})
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/pages, "ns/page")
}
