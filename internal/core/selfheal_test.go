package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"spaceodyssey/internal/geom"
	"spaceodyssey/internal/object"
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

// failTreeReads makes every read of dataset 0's tree file fail with a
// transient fault.
func failTreeReads(eng *Odyssey, dev *simdisk.Device) {
	dev.SetFaultPlan(simdisk.FaultPlan{
		Pages: []simdisk.PageFault{{File: eng.Tree(0).File().ID(), Page: -1, Kind: simdisk.FaultTransient}},
	})
}

// TestTransientFailureConvergesOnRedemand pins the one retry a failed
// maintenance task gets: the traffic that wants it. A task that fails on
// transient faults is recorded and dropped, and once the faults clear the
// next query that demands the region enqueues the work again and it
// converges.
func TestTransientFailureConvergesOnRedemand(t *testing.T) {
	eng, _, dev := testSetup(t, 1, 3000, 11, asyncConfig(1))
	defer eng.Close()
	dss := []object.DatasetID{0}
	enqueueHotWork(t, eng, dss)

	failTreeReads(eng, dev)
	eng.maint.SetPaused(false)
	quiesceTimeout(t, eng)

	st := eng.MaintenanceStats()
	if st.Failed == 0 {
		t.Fatal("fault plan never failed a task")
	}
	// The latest task error keeps its classification.
	if err := eng.MaintenanceErr(); !errors.Is(err, simdisk.ErrTransient) {
		t.Errorf("MaintenanceErr = %v, want a transient fault", err)
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
