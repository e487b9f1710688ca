package core

import (
	"errors"
	"math/rand"
	"time"

	"spaceodyssey/internal/object"
	"spaceodyssey/internal/octree"
	"spaceodyssey/internal/simdisk"
)

// Self-healing defaults (Config.QuarantineAfter / MaintenanceRetryBackoff
// override the first two) and the failure-history bound.
const (
	// DefaultQuarantineAfter is how many consecutive failures of one
	// maintenance unit trip quarantine.
	DefaultQuarantineAfter = 3
	// DefaultMaintenanceRetryBackoff is the base re-enqueue backoff for a
	// failed maintenance task; it doubles per consecutive failure, with up
	// to 50% random jitter added so correlated failures do not re-arrive in
	// lockstep.
	DefaultMaintenanceRetryBackoff = 2 * time.Millisecond
	// maxMaintenanceRetryBackoff caps the exponential growth.
	maxMaintenanceRetryBackoff = time.Second
	// maintenanceHealthRing bounds the failure-history ring
	// MaintenanceHealth reports.
	maintenanceHealthRing = 64
)

// MaintenanceFailure is one entry of the bounded failure history every
// failed background task appends: what failed, why, how many consecutive
// times, and what the scheduler decided to do about it.
type MaintenanceFailure struct {
	// Kind is "refine" or "merge".
	Kind string
	// Dataset and Cell identify a refinement unit (Kind == "refine").
	Dataset object.DatasetID
	Cell    octree.Key
	// Combo identifies a merge unit (Kind == "merge").
	Combo ComboKey
	// Err is the task's error.
	Err error
	// Attempt is the unit's consecutive-failure count at the time (1 for a
	// first failure).
	Attempt int
	// Retried reports that the failure was answered with a backoff
	// re-enqueue; Quarantined that it tripped (or was a permanent fault
	// escalated straight into) quarantine. Both false means the scheduler
	// recorded the failure and moved on (shutdown noise, cancellations).
	Retried     bool
	Quarantined bool
	// Time is the wall-clock failure time, for operators correlating with
	// external monitoring.
	Time time.Time
}

// QuarantinedCell is one maintenance unit the scheduler has stopped
// working on: after QuarantineAfter consecutive failures (or one permanent
// fault) the unit's enqueues are dropped, so a poisoned cell cannot occupy
// maintenance workers in a retry loop. Queries keep serving the unit from
// its last published layout. Unquarantine re-admits it.
type QuarantinedCell struct {
	// Kind is "refine" or "merge".
	Kind    string
	Dataset object.DatasetID
	Cell    octree.Key
	Combo   ComboKey
	// Failures is the consecutive-failure count that tripped quarantine.
	Failures int
	// LastErr is the error that tripped it.
	LastErr error
	// Permanent reports the fast path: the task failed with a permanent
	// device fault and was quarantined on first sight, retries being
	// pointless.
	Permanent bool
}

// MaintenanceHealth is the structured health ledger behind the maintenance
// pipeline, replacing the old single-error MaintenanceErr surface: the
// bounded failure history (most recent last), the current quarantine list,
// and how many failed tasks are waiting out a retry backoff.
type MaintenanceHealth struct {
	Failures       []MaintenanceFailure
	Quarantined    []QuarantinedCell
	PendingRetries int
}

// healthKey identifies one maintenance unit across retries: a (dataset,
// cell) refinement or a combination's merge.
type healthKey struct {
	merge bool
	ds    object.DatasetID
	cell  octree.Key
	combo ComboKey
}

func taskHealthKey(task execTask) healthKey {
	if task.isMerge {
		return healthKey{merge: true, combo: task.merge.key}
	}
	return healthKey{ds: task.ds, cell: task.refine.key}
}

func (k healthKey) kind() string {
	if k.merge {
		return "merge"
	}
	return "refine"
}

// quarantineEntry is the scheduler-side record behind one QuarantinedCell.
type quarantineEntry struct {
	failures  int
	lastErr   error
	permanent bool
}

// noteFailureLocked routes one failed task through the self-healing policy:
// record it in the ring, then either re-enqueue with backoff and jitter,
// quarantine the unit, or (for cancellations and shutdown noise) leave it.
// Called from the worker loop under m.mu.
func (m *maintainer) noteFailureLocked(task execTask, err error) {
	k := taskHealthKey(task)
	attempt := m.failCount[k] + 1
	m.failCount[k] = attempt

	permanent := errors.Is(err, simdisk.ErrPermanent)
	benign := errors.Is(err, simdisk.ErrCanceled) || errors.Is(err, simdisk.ErrDeviceClosed)
	f := MaintenanceFailure{
		Kind: k.kind(), Dataset: k.ds, Cell: k.cell, Combo: k.combo,
		Err: err, Attempt: attempt, Time: time.Now(),
	}
	switch {
	case benign || m.closed:
		// Cancellation and device-closed failures are shutdown noise, not
		// cell health: record them but neither retry nor quarantine, and
		// don't let them accumulate toward a quarantine verdict.
		delete(m.failCount, k)
	case permanent || attempt >= m.quarantineAfter:
		m.quarantine[k] = &quarantineEntry{failures: attempt, lastErr: err, permanent: permanent}
		m.stats.Quarantined++
		delete(m.failCount, k)
		f.Quarantined = true
	default:
		m.scheduleRetryLocked(task, attempt)
		f.Retried = true
	}
	m.ring = append(m.ring, f)
	if over := len(m.ring) - maintenanceHealthRing; over > 0 {
		m.ring = append(m.ring[:0], m.ring[over:]...)
	}
}

// clearFailuresLocked resets a unit's consecutive-failure count after a
// successful run (quarantine decisions only ever see uninterrupted runs of
// failures).
func (m *maintainer) clearFailuresLocked(task execTask) {
	delete(m.failCount, taskHealthKey(task))
}

// quarantinedLocked reports whether a unit is quarantined (its enqueues are
// dropped).
func (m *maintainer) quarantinedLocked(k healthKey) bool {
	_, q := m.quarantine[k]
	return q
}

// scheduleRetryLocked re-enqueues a failed task after an exponential
// backoff with jitter, holding the pipeline non-idle (Quiesce waits retry
// chains out — they terminate because quarantine bounds consecutive
// failures). The timer goroutine aborts early on Close.
func (m *maintainer) scheduleRetryLocked(task execTask, attempt int) {
	d := m.retryBackoff
	for i := 1; i < attempt && d < maxMaintenanceRetryBackoff; i++ {
		d *= 2
	}
	if d > maxMaintenanceRetryBackoff {
		d = maxMaintenanceRetryBackoff
	}
	if d > 0 {
		d += time.Duration(m.rng.Int63n(int64(d)/2 + 1))
	}
	m.pendingRetries++
	m.stats.Retried++
	m.retryWG.Add(1)
	go m.retryAfter(task, d)
}

// retryAfter waits out one retry backoff and re-enqueues the task. The
// decrement of pendingRetries and the re-enqueue happen in one critical
// section, so the pipeline can never look idle between them.
func (m *maintainer) retryAfter(task execTask, d time.Duration) {
	defer m.retryWG.Done()
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
	case <-m.retryStop:
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.pendingRetries--
	if m.closed {
		m.maybeIdleLocked()
		return
	}
	if task.isMerge {
		m.enqueueMergeLocked(task.merge.key, task.merge.members)
	} else {
		m.enqueueRefineLocked(task.ds, []octree.Key{task.refine.key}, task.refine.box, task.refine.qVol, task.refine.members)
	}
}

// Health snapshots the pipeline's health ledger.
func (m *maintainer) Health() MaintenanceHealth {
	m.mu.Lock()
	defer m.mu.Unlock()
	h := MaintenanceHealth{
		Failures:       append([]MaintenanceFailure(nil), m.ring...),
		PendingRetries: m.pendingRetries,
	}
	for k, e := range m.quarantine {
		h.Quarantined = append(h.Quarantined, QuarantinedCell{
			Kind: k.kind(), Dataset: k.ds, Cell: k.cell, Combo: k.combo,
			Failures: e.failures, LastErr: e.lastErr, Permanent: e.permanent,
		})
	}
	return h
}

// Unquarantine re-admits one quarantined unit (identified by a
// QuarantinedCell from Health; Failures/LastErr/Permanent are ignored),
// clearing its failure history so the next failure starts a fresh streak.
// Returns whether the unit was quarantined.
func (m *maintainer) Unquarantine(q QuarantinedCell) bool {
	k := healthKey{merge: q.Kind == "merge", ds: q.Dataset, cell: q.Cell, combo: q.Combo}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.quarantine[k]; !ok {
		return false
	}
	delete(m.quarantine, k)
	delete(m.failCount, k)
	return true
}

// newMaintRand seeds the jitter source. Jitter needs no determinism — it
// exists to decorrelate retry arrivals — but a fixed seed keeps test runs
// repeatable enough to debug.
func newMaintRand() *rand.Rand {
	return rand.New(rand.NewSource(0x0d355e1))
}
