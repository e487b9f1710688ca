package cluster

import (
	"sort"
	"sync"
	"time"
)

// latencyTracker keeps a bounded ring of recent served sub-query wall
// latencies and answers their p99 — the hedge trigger. Only latencies that
// were actually returned to a caller are recorded (the winning leg of a
// hedged pair, or the sole leg of an unhedged serve): a slow loser's
// latency never enters the ring, so a slow-shard storm cannot drag the p99
// up to its own stall and disarm the very hedging that routes around it.
type latencyTracker struct {
	mu   sync.Mutex
	ring []time.Duration
	next int
	full bool
}

// The hedge trigger's constants: the tracker retains hedgeWindow recent
// served latencies, and their p99 is clamped into [hedgeMinDelay,
// hedgeMaxDelay]. The floor keeps a cold tracker from hedging everything;
// the cap bounds how long a stuck shard can defer its hedge.
const (
	hedgeWindow   = 512
	hedgeMinDelay = 2 * time.Millisecond
	hedgeMaxDelay = 250 * time.Millisecond
)

func newLatencyTracker() *latencyTracker {
	return &latencyTracker{ring: make([]time.Duration, hedgeWindow)}
}

// observe records one served latency.
func (t *latencyTracker) observe(d time.Duration) {
	t.mu.Lock()
	t.ring[t.next] = d
	t.next++
	if t.next == len(t.ring) {
		t.next = 0
		t.full = true
	}
	t.mu.Unlock()
}

// p99 returns the 99th percentile of the retained window (0 when empty).
func (t *latencyTracker) p99() time.Duration {
	t.mu.Lock()
	n := t.next
	if t.full {
		n = len(t.ring)
	}
	sample := make([]time.Duration, n)
	copy(sample, t.ring[:n])
	t.mu.Unlock()
	if n == 0 {
		return 0
	}
	sort.Slice(sample, func(i, j int) bool { return sample[i] < sample[j] })
	idx := (99*n + 99) / 100
	if idx >= n {
		idx = n - 1
	}
	return sample[idx]
}

// delay is the hedge trigger: the tracked p99 clamped into the
// [hedgeMinDelay, hedgeMaxDelay] band. A cold tracker answers hedgeMinDelay
// — hedging engages conservatively until evidence arrives.
func (t *latencyTracker) delay() time.Duration {
	return min(max(t.p99(), hedgeMinDelay), hedgeMaxDelay)
}
