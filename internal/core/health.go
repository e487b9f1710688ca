package core

import (
	"errors"
	"time"

	"spaceodyssey/internal/object"
	"spaceodyssey/internal/octree"
	"spaceodyssey/internal/simdisk"
)

// maintenanceHealthRing bounds the failure-history ring MaintenanceHealth
// reports.
const maintenanceHealthRing = 64

// MaintenanceFailure is one entry of the bounded failure history every
// failed background task appends: what failed, why, and whether the unit was
// quarantined for it.
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
	// Quarantined reports that the failure was a permanent device fault and
	// quarantined its unit. False means the scheduler recorded the failure
	// and dropped the task: the next query that wants the work enqueues it
	// again.
	Quarantined bool
	// Time is the wall-clock failure time, for operators correlating with
	// external monitoring.
	Time time.Time
}

// QuarantinedCell is one maintenance unit the scheduler has stopped
// working on: its task failed with a permanent device fault, which no
// re-demand can fix, so the unit's enqueues are dropped. Queries keep
// serving the unit from its last published layout. Unquarantine re-admits
// it.
type QuarantinedCell struct {
	// Kind is "refine" or "merge".
	Kind    string
	Dataset object.DatasetID
	Cell    octree.Key
	Combo   ComboKey
	// LastErr is the error that tripped it.
	LastErr error
}

// MaintenanceHealth is the structured health ledger behind the maintenance
// pipeline: the bounded failure history (most recent last) and the current
// quarantine list.
type MaintenanceHealth struct {
	Failures    []MaintenanceFailure
	Quarantined []QuarantinedCell
}

// healthKey identifies one maintenance unit: a (dataset, cell) refinement
// or a combination's merge.
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

// noteFailureLocked records one failed task in the ring and quarantines its
// unit when the failure is a permanent device fault. Any other failure is
// only recorded: the task is dropped, and the traffic that wants the work
// re-demands it. Cancellations, device-closed failures and failures on a
// closing pipeline are shutdown noise, never quarantined. Called from the
// worker loop under m.mu.
func (m *maintainer) noteFailureLocked(task execTask, err error) {
	k := taskHealthKey(task)
	f := MaintenanceFailure{
		Kind: k.kind(), Dataset: k.ds, Cell: k.cell, Combo: k.combo,
		Err: err, Time: time.Now(),
	}
	benign := errors.Is(err, simdisk.ErrCanceled) || errors.Is(err, simdisk.ErrDeviceClosed) || m.closed
	if errors.Is(err, simdisk.ErrPermanent) && !benign {
		m.quarantine[k] = err
		m.stats.Quarantined++
		f.Quarantined = true
	}
	m.ring = append(m.ring, f)
	if over := len(m.ring) - maintenanceHealthRing; over > 0 {
		m.ring = append(m.ring[:0], m.ring[over:]...)
	}
}

// quarantinedLocked reports whether a unit is quarantined (its enqueues are
// dropped).
func (m *maintainer) quarantinedLocked(k healthKey) bool {
	_, q := m.quarantine[k]
	return q
}

// Health snapshots the pipeline's health ledger.
func (m *maintainer) Health() MaintenanceHealth {
	m.mu.Lock()
	defer m.mu.Unlock()
	h := MaintenanceHealth{Failures: append([]MaintenanceFailure(nil), m.ring...)}
	for k, err := range m.quarantine {
		h.Quarantined = append(h.Quarantined, QuarantinedCell{
			Kind: k.kind(), Dataset: k.ds, Cell: k.cell, Combo: k.combo, LastErr: err,
		})
	}
	return h
}

// Unquarantine re-admits one quarantined unit (identified by a
// QuarantinedCell from Health; LastErr is ignored). Returns whether the
// unit was quarantined.
func (m *maintainer) Unquarantine(q QuarantinedCell) bool {
	k := healthKey{merge: q.Kind == "merge", ds: q.Dataset, cell: q.Cell, combo: q.Combo}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.quarantine[k]; !ok {
		return false
	}
	delete(m.quarantine, k)
	return true
}
