package core

import "time"

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
