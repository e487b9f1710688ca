package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"spaceodyssey/internal/engine"
	"spaceodyssey/internal/geom"
	"spaceodyssey/internal/object"
	"spaceodyssey/internal/octree"
	"spaceodyssey/internal/simdisk"
)

// quiesceTimeout fails the test rather than hanging when the pipeline never
// drains.
func quiesceTimeout(t *testing.T, eng *Odyssey) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := eng.Quiesce(ctx); err != nil {
		t.Fatalf("quiesce: %v", err)
	}
}

// hotQuery demands refinement of the level-1 cells it hits.
var hotQuery = geom.Cube(geom.V(0.42, 0.42, 0.42), 0.1)

// enqueueHotWork runs a refinement-demanding query with the scheduler
// paused, so tasks are queued but none has run yet.
func enqueueHotWork(t *testing.T, eng *Odyssey, dss []object.DatasetID) {
	t.Helper()
	eng.maint.SetPaused(true)
	if _, err := eng.Query(hotQuery, dss); err != nil {
		t.Fatal(err)
	}
	if eng.MaintenanceStats().Queued == 0 {
		t.Fatal("hot query enqueued no maintenance work")
	}
}

// failTreeReads makes every read of dataset 0's tree file fail with the
// given fault kind.
func failTreeReads(eng *Odyssey, dev *simdisk.Device, kind simdisk.FaultKind) {
	dev.SetFaultPlan(simdisk.FaultPlan{
		Pages: []simdisk.PageFault{{File: eng.Tree(0).File().ID(), Page: -1, Kind: kind}},
	})
}

// TestTransientFailureConvergesOnRedemand pins the one retry a failed
// maintenance task gets: the traffic that wants it. A task that fails on
// transient faults is recorded and dropped, nothing is quarantined, and once
// the faults clear the next query that demands the region enqueues the work
// again and it converges.
func TestTransientFailureConvergesOnRedemand(t *testing.T) {
	eng, _, dev := testSetup(t, 1, 3000, 11, asyncConfig(1))
	defer eng.Close()
	dss := []object.DatasetID{0}
	enqueueHotWork(t, eng, dss)

	failTreeReads(eng, dev, simdisk.FaultTransient)
	eng.maint.SetPaused(false)
	quiesceTimeout(t, eng)

	st := eng.MaintenanceStats()
	if st.Failed == 0 {
		t.Fatal("fault plan never failed a task")
	}
	if st.Quarantined != 0 {
		t.Errorf("transient failures quarantined %d units", st.Quarantined)
	}
	h := eng.MaintenanceHealth()
	if len(h.Failures) == 0 {
		t.Fatal("health ring recorded no failures")
	}
	for _, f := range h.Failures {
		if !errors.Is(f.Err, simdisk.ErrTransient) {
			t.Errorf("recorded failure lost classification: %v", f.Err)
		}
		if f.Quarantined {
			t.Errorf("transient failure marked quarantined: %+v", f)
		}
	}
	if len(h.Quarantined) != 0 {
		t.Errorf("quarantine list not empty: %+v", h.Quarantined)
	}
	// Compatibility accessor returns the latest ring entry.
	if err := eng.MaintenanceErr(); err != h.Failures[len(h.Failures)-1].Err {
		t.Errorf("MaintenanceErr = %v, want the ring's latest entry", err)
	}
	before, _ := eng.TreeInfo(0)

	// The faults clear and the same query comes back: it re-demands the
	// refinement, which now runs to completion.
	dev.SetFaultPlan(simdisk.FaultPlan{})
	if _, err := eng.Query(hotQuery, dss); err != nil {
		t.Fatal(err)
	}
	quiesceTimeout(t, eng)

	if after, _ := eng.TreeInfo(0); after.Refinements <= before.Refinements {
		t.Errorf("re-demand did not converge: refinements %d -> %d", before.Refinements, after.Refinements)
	}
	st = eng.MaintenanceStats()
	if st.Completed == 0 {
		t.Error("no task completed after the faults cleared")
	}
	// Ledger balances at idle: every queued task completed or failed.
	if st.Queued != st.Completed+st.Failed+st.Dropped {
		t.Errorf("ledger unbalanced: queued %d != completed %d + failed %d + dropped %d",
			st.Queued, st.Completed, st.Failed, st.Dropped)
	}
}

// TestMaintenanceQuarantine pins the poisoned-cell path: a unit whose task
// fails on a permanent fault is quarantined, stops consuming workers (its
// enqueues are dropped), queries keep serving from the last published
// layout, and Unquarantine re-admits it.
func TestMaintenanceQuarantine(t *testing.T) {
	eng, raws, dev := testSetup(t, 1, 3000, 11, asyncConfig(1))
	defer eng.Close()
	oracle := engine.NewNaiveScan(raws)
	enqueueHotWork(t, eng, []object.DatasetID{0})

	failTreeReads(eng, dev, simdisk.FaultPermanent)
	eng.maint.SetPaused(false)
	quiesceTimeout(t, eng)

	st := eng.MaintenanceStats()
	if st.Quarantined == 0 {
		t.Fatal("permanent failure never quarantined")
	}
	h := eng.MaintenanceHealth()
	if len(h.Quarantined) == 0 {
		t.Fatal("health reports no quarantined units")
	}
	if st.Queued != st.Completed+st.Failed+st.Dropped {
		t.Fatalf("ledger unbalanced: queued %d != completed %d + failed %d + dropped %d",
			st.Queued, st.Completed, st.Failed, st.Dropped)
	}

	// A quarantined cell stops consuming workers: re-demanding the same
	// region queues nothing for it.
	dev.SetFaultPlan(simdisk.FaultPlan{})
	queuedBefore := eng.MaintenanceStats().Queued
	quarantined := h.Quarantined[0]
	if quarantined.Kind != "refine" {
		t.Fatalf("expected refine quarantine first, got %+v", quarantined)
	}
	eng.maint.EnqueueRefine(quarantined.Dataset, []octree.Key{quarantined.Cell}, hotQuery, 1e-3, []object.DatasetID{0})
	if got := eng.MaintenanceStats().Queued; got != queuedBefore {
		t.Fatalf("quarantined cell still accepted work: queued %d -> %d", queuedBefore, got)
	}

	// Queries keep serving from the last published layout.
	got, err := eng.Query(hotQuery, []object.DatasetID{0})
	if err != nil {
		t.Fatalf("query against quarantined layout failed: %v", err)
	}
	want, err := oracle.Query(hotQuery, []object.DatasetID{0})
	if err != nil {
		t.Fatal(err)
	}
	if !engine.SameObjects(got, want) {
		t.Fatalf("degraded serving wrong: %d vs %d objects", len(got), len(want))
	}
	quiesceTimeout(t, eng)

	// Unquarantine re-admits the unit.
	if !eng.Unquarantine(quarantined) {
		t.Fatal("Unquarantine found nothing")
	}
	if eng.Unquarantine(quarantined) {
		t.Fatal("Unquarantine not idempotent")
	}
	queuedBefore = eng.MaintenanceStats().Queued
	eng.maint.EnqueueRefine(quarantined.Dataset, []octree.Key{quarantined.Cell}, hotQuery, 1e-3, []object.DatasetID{0})
	if got := eng.MaintenanceStats().Queued; got != queuedBefore+1 {
		t.Fatalf("unquarantined cell rejected work: queued %d -> %d", queuedBefore, got)
	}
	quiesceTimeout(t, eng)
}

// TestMaintenancePermanentFaultQuarantinesImmediately pins the fast path:
// a permanent device fault quarantines the unit on first failure, and the
// quarantine entry keeps the fault's classification.
func TestMaintenancePermanentFaultQuarantinesImmediately(t *testing.T) {
	eng, _, dev := testSetup(t, 1, 3000, 11, asyncConfig(1))
	defer eng.Close()
	enqueueHotWork(t, eng, []object.DatasetID{0})

	failTreeReads(eng, dev, simdisk.FaultPermanent)
	eng.maint.SetPaused(false)
	quiesceTimeout(t, eng)

	st := eng.MaintenanceStats()
	if st.Quarantined == 0 {
		t.Fatal("permanent fault never quarantined")
	}
	if st.Quarantined != st.Failed {
		t.Fatalf("%d permanent failures quarantined %d units, want one each", st.Failed, st.Quarantined)
	}
	for _, q := range eng.MaintenanceHealth().Quarantined {
		if !errors.Is(q.LastErr, simdisk.ErrPermanent) {
			t.Fatalf("quarantine LastErr lost classification: %v", q.LastErr)
		}
	}
}
