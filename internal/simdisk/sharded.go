package simdisk

import (
	"sync"
	"sync/atomic"
)

// Sharding parameters. A shard is only worth its mutex when it holds a
// meaningful slice of the cache, so the shard count grows with capacity:
// capacity < 2*minShardPages keeps the single global LRU (bit-for-bit the
// pre-sharding behaviour, which the small-cache tests pin down), while large
// caches fan out to up to maxCacheShards independently locked LRUs.
const (
	maxCacheShards = 16 // power of two; shard index is hash & (n-1)
	minShardPages  = 128
)

// shardCount returns the number of shards (a power of two) for a capacity.
func shardCount(capacity int) int {
	n := 1
	for n < maxCacheShards && capacity >= 2*n*minShardPages {
		n *= 2
	}
	return n
}

// cacheShard is one independently locked slice of the page cache.
type cacheShard struct {
	mu  sync.Mutex
	lru *lruCache
}

// hitCounter is a cache-line-padded counter so that per-shard hit accounting
// from parallel readers does not false-share.
type hitCounter struct {
	n atomic.Int64
	_ [56]byte
}

// shardedCache is the device's buffer cache: an LRU set of page keys split
// into shards keyed by a hash of the pageKey, so cache hits from parallel
// readers contend only on their shard's mutex instead of serializing on one
// global lock. Hit counts are kept in per-shard counters and aggregated on
// read (Stats), never on the hot path.
//
// Eviction is per shard: each shard runs LRU over its own slice of the
// capacity. With a uniform key hash this approximates global LRU closely
// while keeping eviction decisions lock-local.
type shardedCache struct {
	shards []*cacheShard              // fixed at construction
	hits   [maxCacheShards]hitCounter // indexed by hash
}

func newShardedCache(capacity int) *shardedCache {
	if capacity < 0 {
		capacity = 0
	}
	n := shardCount(capacity)
	base, extra := capacity/n, capacity%n
	shards := make([]*cacheShard, n)
	for i := range shards {
		capi := base
		if i < extra {
			capi++
		}
		shards[i] = &cacheShard{lru: newLRUCache(capi)}
	}
	return &shardedCache{shards: shards}
}

// hash mixes a pageKey into a well-distributed 64-bit value (splitmix64
// finalizer over the file/page pair).
func (c *shardedCache) hash(key pageKey) uint64 {
	h := uint64(key.page)*0x9E3779B97F4A7C15 ^ uint64(key.file)*0xBF58476D1CE4E5B9
	h ^= h >> 33
	h *= 0xFF51AFD7ED558CCD
	h ^= h >> 33
	return h
}

// Touch is the read path's single cache interaction: it reports whether key
// was cached (marking it most recently used and counting the hit) and
// inserts it on a miss, all under one shard lock.
func (c *shardedCache) Touch(key pageKey) bool {
	h := c.hash(key)
	s := c.shards[h&uint64(len(c.shards)-1)]
	s.mu.Lock()
	hit := s.lru.Contains(key)
	if !hit {
		s.lru.Insert(key)
	}
	s.mu.Unlock()
	if hit {
		c.hits[h&uint64(maxCacheShards-1)].n.Add(1)
	}
	return hit
}

// Insert adds key as most recently used in its shard (write-through path).
func (c *shardedCache) Insert(key pageKey) {
	h := c.hash(key)
	s := c.shards[h&uint64(len(c.shards)-1)]
	s.mu.Lock()
	s.lru.Insert(key)
	s.mu.Unlock()
}

// RemoveFile drops every cached page of file f from all shards.
func (c *shardedCache) RemoveFile(f FileID) {
	for _, s := range c.shards {
		s.mu.Lock()
		s.lru.RemoveFile(f)
		s.mu.Unlock()
	}
}

// Clear empties every shard (the paper's cache drop). Hit counters are
// untouched; they are statistics, not contents.
func (c *shardedCache) Clear() {
	for _, s := range c.shards {
		s.mu.Lock()
		s.lru.Clear()
		s.mu.Unlock()
	}
}

// Hits aggregates the per-shard hit counters.
func (c *shardedCache) Hits() int64 {
	var n int64
	for i := range c.hits {
		n += c.hits[i].n.Load()
	}
	return n
}

// ResetHits zeroes the per-shard hit counters.
func (c *shardedCache) ResetHits() {
	for i := range c.hits {
		c.hits[i].n.Store(0)
	}
}
