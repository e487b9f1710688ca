package odyssey

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
)

// asyncEnv builds an Explorer with background maintenance on plus a few
// datasets.
func asyncEnv(t testing.TB, opts Options) *Explorer {
	t.Helper()
	opts.AsyncMaintenance = true
	ex, err := NewExplorer(opts)
	if err != nil {
		t.Fatal(err)
	}
	data := GenerateDatasets(DataConfig{Seed: 17, NumObjects: 1500, Clusters: 3}, 3)
	for i, objs := range data {
		if err := ex.AddDataset(DatasetID(i), objs); err != nil {
			t.Fatal(err)
		}
	}
	return ex
}

// TestExplorerCloseDrainsMaintenance mirrors the dispatcher's
// goroutine-leak test for the maintenance pipeline: Close must
// cancel-and-drain the queue before closing the device — no maintenance
// writer may ever touch a closed device — wind every scheduler goroutine
// down, and leave Query/QueryCtx/AddDataset failing fast with ErrClosed.
func TestExplorerCloseDrainsMaintenance(t *testing.T) {
	before := runtime.NumGoroutine()
	ex := asyncEnv(t, Options{MaintenanceWorkers: 3})
	// Slow the simulated device slightly so background refinements are
	// still in flight when Close lands.
	ex.SetRealTimeScale(0.05)

	hot := Cube(V(0.4, 0.45, 0.5), 0.1)
	dss := []DatasetID{0, 1, 2}
	for i := 0; i < 6; i++ {
		if _, err := ex.Query(hot, dss); err != nil {
			t.Fatal(err)
		}
	}
	if err := ex.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := ex.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	// The maintenance ledger balances: every queued task was completed
	// before the device closed, or dropped — none may fail against a
	// closed device.
	st := ex.MaintenanceStats()
	if st.Queued != st.Completed+st.Failed+st.Dropped {
		t.Errorf("maintenance ledger does not balance after Close: %+v", st)
	}
	if err := ex.MaintenanceErr(); err != nil {
		t.Errorf("maintenance task failed during Close: %v", err)
	}

	// Query paths fail fast with ErrClosed after Close.
	if _, err := ex.Query(hot, dss); !errors.Is(err, ErrClosed) {
		t.Errorf("Query after Close = %v, want ErrClosed", err)
	}
	if _, err := ex.QueryCtx(context.Background(), hot, dss); !errors.Is(err, ErrClosed) {
		t.Errorf("QueryCtx after Close = %v, want ErrClosed", err)
	}
	extra := GenerateDatasets(DataConfig{Seed: 18, NumObjects: 100, Clusters: 1}, 4)[3]
	if err := ex.AddDataset(3, extra); !errors.Is(err, ErrClosed) {
		t.Errorf("AddDataset after Close = %v, want ErrClosed", err)
	}

	// Scheduler goroutines must all wind down.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && runtime.NumGoroutine() > before+2 {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before+2 {
		t.Errorf("goroutines did not settle after Close: %d before, %d after", before, g)
	}
}

// TestExplorerCloseDuringFaultStorm extends the drain test into the worst
// weather: Close lands while a fault storm has queries retrying page reads
// and maintenance tasks failing — every goroutine (query workers,
// maintenance workers) must still wind down, the ledger must balance, and
// the device must close cleanly.
func TestExplorerCloseDuringFaultStorm(t *testing.T) {
	before := runtime.NumGoroutine()
	ex := asyncEnv(t, Options{MaintenanceWorkers: 3})
	ex.SetRetryPolicy(RetryPolicy{MaxAttempts: 4, Backoff: time.Millisecond})
	ex.SetRealTimeScale(0.05)
	ex.SetFaultPlan(FaultPlan{
		Seed:          33,
		TransientRate: 0.3,
		SpikeRate:     0.05,
		SpikeLatency:  2 * time.Millisecond,
	})

	hot := Cube(V(0.4, 0.45, 0.5), 0.1)
	dss := []DatasetID{0, 1, 2}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 4; j++ {
				ex.Query(hot, dss) // faults and ErrClosed both expected
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	if err := ex.Close(); err != nil {
		t.Fatalf("Close mid-storm: %v", err)
	}
	wg.Wait()

	st := ex.MaintenanceStats()
	if st.Queued != st.Completed+st.Failed+st.Dropped {
		t.Errorf("maintenance ledger does not balance after mid-storm Close: %+v", st)
	}
	if _, err := ex.Query(hot, dss); !errors.Is(err, ErrClosed) {
		t.Errorf("Query after Close = %v, want ErrClosed", err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && runtime.NumGoroutine() > before+2 {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before+2 {
		t.Errorf("goroutines did not settle after mid-storm Close: %d before, %d after", before, g)
	}
}

// TestSubmitAfterExplorerClose pins the serving-layer contract on a closed
// Explorer: a dispatcher's Submit after its own Close returns ErrClosed,
// and a worker serving a closed Explorer delivers ErrClosed through the
// result — never a panic or a device error.
func TestSubmitAfterExplorerClose(t *testing.T) {
	ex := asyncEnv(t, Options{})
	hot := Cube(V(0.4, 0.45, 0.5), 0.1)
	q := Query{Range: hot, Datasets: []DatasetID{0, 1, 2}}

	d := NewDispatcher(ex, 2)
	out := make(chan BatchResult, 4)
	if err := d.Submit(0, q, out); err != nil {
		t.Fatal(err)
	}
	d.Close()
	if r := <-out; r.Err != nil {
		t.Fatalf("pre-close query failed: %v", r.Err)
	}
	if err := d.Submit(1, q, out); !errors.Is(err, ErrClosed) {
		t.Errorf("Submit after dispatcher Close = %v, want ErrClosed", err)
	}

	// A fresh dispatcher over a closed Explorer: submission is accepted
	// (the pool is alive) and the worker reports ErrClosed per query.
	if err := ex.Close(); err != nil {
		t.Fatal(err)
	}
	d2 := NewDispatcher(ex, 2)
	if err := d2.Submit(0, q, out); err != nil {
		t.Fatalf("Submit to live dispatcher over closed explorer: %v", err)
	}
	d2.Close()
	if r := <-out; !errors.Is(r.Err, ErrClosed) {
		t.Errorf("query on closed Explorer returned %v, want ErrClosed", r.Err)
	}
}
