package core

import (
	"time"

	"spaceodyssey/internal/object"
	"spaceodyssey/internal/octree"
)

// Probes the package's tests read through. Nothing outside tests needs
// them, so they live here.

// Total sums all phases.
func (p PhaseTimes) Total() time.Duration {
	return p.LevelZeroBuild + p.Refinement + p.TreeReads + p.MergeReads + p.MergeWrites
}

// SetPaused freezes (true) or thaws (false) task pickup; queued work stays
// queued while paused. Tests use it to observe coalescing deterministically.
func (m *maintainer) SetPaused(paused bool) {
	m.mu.Lock()
	m.paused = paused
	m.mu.Unlock()
	m.cond.Broadcast()
}

// Peek returns the cached content of (ds, cell) through the map, under the
// shared lock, as a maintenance read without the partition would: it books
// no hit and touches no heat.
func (c *resultCache) Peek(ds object.DatasetID, cell octree.Key) (cellContent, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if it, ok := c.entries[scanKey{ds: ds, cell: cell}]; ok {
		return it.content(), true
	}
	return cellContent{}, false
}

// content is the entry's cell content.
func (s *cachedScan) content() cellContent { return contentOf(&s.CacheEntry) }
