package odyssey

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
)

// batchEnv builds a small explorer plus a fixed workload for pool tests.
func batchEnv(t testing.TB) (*Explorer, []Query) {
	t.Helper()
	ex, err := NewExplorer(Options{})
	if err != nil {
		t.Fatal(err)
	}
	data := GenerateDatasets(DataConfig{Seed: 5, NumObjects: 1500, Clusters: 3}, 3)
	for i, objs := range data {
		if err := ex.AddDataset(DatasetID(i), objs); err != nil {
			t.Fatal(err)
		}
	}
	w, err := GenerateWorkload(WorkloadConfig{
		Seed: 9, NumQueries: 40, NumDatasets: 3, DatasetsPerQuery: 2,
		QueryVolumeFrac: 2e-4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ex, w.Queries
}

func TestQueryBatchMatchesSerial(t *testing.T) {
	exSerial, queries := batchEnv(t)
	want := make([][]Object, len(queries))
	for i, q := range queries {
		objs, err := exSerial.Query(q.Range, q.Datasets)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = objs
	}

	exPar, _ := batchEnv(t)
	results, err := exPar.QueryBatch(queries, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(queries) {
		t.Fatalf("got %d results for %d queries", len(results), len(queries))
	}
	for i, r := range results {
		if r.Index != i {
			t.Fatalf("result %d carries index %d", i, r.Index)
		}
		if r.Err != nil {
			t.Fatalf("query %d failed: %v", i, r.Err)
		}
		if !sameObjects(r.Objects, want[i]) {
			t.Errorf("query %d: batch returned %d objects, serial %d",
				i, len(r.Objects), len(want[i]))
		}
	}
}

func TestQueryBatchReportsQueryError(t *testing.T) {
	ex, queries := batchEnv(t)
	bad := queries[3]
	bad.Datasets = []DatasetID{99}
	queries[3] = bad
	results, err := ex.QueryBatch(queries, 4)
	if err == nil {
		t.Fatal("expected the unknown-dataset error to surface")
	}
	if results[3].Err == nil || !errors.Is(err, results[3].Err) {
		t.Fatalf("first error %v does not match failing result's %v", err, results[3].Err)
	}
	for i, r := range results {
		if i != 3 && r.Err != nil {
			t.Errorf("healthy query %d failed: %v", i, r.Err)
		}
	}
}

// TestDispatcherStreams: a producer submitting a stream of queries beside
// the consumer that drains them gets every result back exactly once.
func TestDispatcherStreams(t *testing.T) {
	ex, queries := batchEnv(t)
	d := NewDispatcher(ex, 4)
	out := make(chan BatchResult, 4)
	go func() {
		for i, q := range queries {
			if err := d.Submit(i, q, out); err != nil {
				out <- BatchResult{Index: i, Query: q, Err: err}
			}
		}
		d.Close()
		close(out)
	}()
	seen := make(map[int]bool)
	total := 0
	for r := range out {
		if r.Err != nil {
			t.Fatalf("query %d failed: %v", r.Index, r.Err)
		}
		if seen[r.Index] {
			t.Fatalf("index %d delivered twice", r.Index)
		}
		seen[r.Index] = true
		total++
	}
	if total != len(queries) {
		t.Fatalf("streamed %d results for %d queries", total, len(queries))
	}
}

// TestDispatcherWorkerStats reads the per-worker counters while the workers
// serve — under -race, a counter a worker writes without synchronisation
// fails it — and checks them after Close.
func TestDispatcherWorkerStats(t *testing.T) {
	ex, queries := batchEnv(t)
	d := NewDispatcher(ex, 4)
	out := make(chan BatchResult, len(queries))
	go func() {
		for i, q := range queries {
			if err := d.Submit(i, q, out); err != nil {
				t.Error(err)
			}
		}
		d.Close()
		close(out)
	}()
	for range out {
		d.WorkerStats()
	}
	d.Close() // idempotent
	if err := d.Submit(0, queries[0], out); err != ErrClosed {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
	stats := d.WorkerStats()
	if len(stats) != 4 {
		t.Fatalf("%d workers, want 4", len(stats))
	}
	served := 0
	for _, st := range stats {
		served += st.Queries
		if st.Queries > 0 && st.Busy <= 0 {
			t.Errorf("worker %d served %d queries in zero time", st.Worker, st.Queries)
		}
	}
	if served != len(queries) {
		t.Fatalf("workers served %d queries, want %d", served, len(queries))
	}
}

// TestDispatcherCancelStormGoroutineLeak floods a dispatcher with
// short-deadline queries, closes it with work still pending, and asserts
// that every admitted query still gets exactly one result and that the
// worker goroutines all exit — no leaked goroutines, no lost results. A
// submit the bounded queue blocks ends with its context and is not admitted.
func TestDispatcherCancelStormGoroutineLeak(t *testing.T) {
	ex, queries := batchEnv(t)
	ex.SetRealTimeScale(0.5)
	before := runtime.NumGoroutine()
	d := NewDispatcher(ex, 8)
	out := make(chan BatchResult, 256)
	admitted := 0
	var cancels []context.CancelFunc
	for i := 0; i < 200; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
		cancels = append(cancels, cancel)
		err := d.SubmitCtx(ctx, i, queries[i%len(queries)], out)
		switch {
		case err == nil:
			admitted++
		case IsCanceled(err):
		default:
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	d.Close()
	for _, cancel := range cancels {
		cancel()
	}
	close(out)
	got := 0
	for range out {
		got++
	}
	if got != admitted {
		t.Fatalf("%d results delivered for %d admitted queries", got, admitted)
	}
	st := d.AdmissionStats()
	if st.Admitted != int64(admitted) || st.Completed+st.Canceled+st.Failed != st.Admitted {
		t.Errorf("admission ledger does not balance: %+v", st)
	}
	// Workers must all wind down after Close.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && runtime.NumGoroutine() > before+2 {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before+2 {
		t.Errorf("goroutines did not settle after Close: %d before, %d after", before, g)
	}
}

// TestDispatcherCancelAbandonsBlockedSubmit pins the backpressure escape
// hatch: a Submit blocks when the job queue is full, but canceling its
// context must abandon the wait instead of blocking forever (and must not
// wedge a concurrent Close via the held send lock).
func TestDispatcherCancelAbandonsBlockedSubmit(t *testing.T) {
	ex, queries := batchEnv(t)
	d := NewDispatcher(ex, 1)     // job queue capacity 2
	out := make(chan BatchResult) // unbuffered and undrained: the worker wedges on delivery
	for i := 0; i < 3; i++ {
		// Job 0 is dequeued and wedges delivering; jobs 1-2 fill the queue.
		if err := d.Submit(i, queries[i], out); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := d.SubmitCtx(ctx, 3, queries[3], out)
	if !IsCanceled(err) {
		t.Fatalf("blocked submit under canceled ctx = %v, want cancellation", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("canceled submit took %v to abandon the wait", elapsed)
	}
	for i := 0; i < 3; i++ {
		<-out // release the worker and drain the queue
	}
	d.Close()
	if st := d.AdmissionStats(); st.Admitted != 3 {
		t.Errorf("Admitted = %d, want 3 (the abandoned submit was never admitted)", st.Admitted)
	}
}

// TestDispatcherClosedSubmitNoPanic is the regression test for submitting
// to a closed dispatcher: it must return ErrClosed — never panic on a
// closed channel — including when Submit races Close from many goroutines.
func TestDispatcherClosedSubmitNoPanic(t *testing.T) {
	ex, queries := batchEnv(t)
	d := NewDispatcher(ex, 2)
	d.Close()
	out := make(chan BatchResult, 1)
	if err := d.Submit(0, queries[0], out); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}

	// Race storm: 8 submitters against a concurrent Close. Every submission
	// either lands (result delivered) or reports ErrClosed cleanly.
	d2 := NewDispatcher(ex, 4)
	storm := make(chan BatchResult, 1024)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				err := d2.Submit(g*40+i, queries[(g+i)%len(queries)], storm)
				if err != nil && !errors.Is(err, ErrClosed) {
					t.Errorf("racing submit: %v", err)
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		d2.Close()
		close(done)
	}()
	wg.Wait()
	<-done
	d2.Close() // idempotent
}

// sameObjects compares two result sets ignoring order without mutating the
// inputs' backing arrays beyond sorting copies.
func sameObjects(a, b []Object) bool {
	if len(a) != len(b) {
		return false
	}
	am := make(map[Object]int, len(a))
	for _, o := range a {
		am[o]++
	}
	for _, o := range b {
		am[o]--
		if am[o] < 0 {
			return false
		}
	}
	return true
}

// TestDispatcherCanceledQueuedJobsNeverRun pins the one path a dead queued
// job takes: a stage of jobs nobody is executing yet (the batch window never
// elapses) parks no goroutine per job, and once their context ends the
// workers that pop them deliver each one canceled without running it — no
// device read, no engine query.
func TestDispatcherCanceledQueuedJobsNeverRun(t *testing.T) {
	ex, queries := batchEnv(t)
	const workers, n = 2, 1000
	d := NewDispatcherWithAdmission(ex, workers, AdmissionConfig{BatchWindow: time.Hour})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out := make(chan BatchResult, n)
	pages, ran := ex.DiskStats().PageReads, ex.Metrics().Queries
	before := runtime.NumGoroutine()
	for i := 0; i < n; i++ {
		if err := d.SubmitCtx(ctx, i, queries[i%len(queries)], out); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if grown := runtime.NumGoroutine() - before; grown > workers {
		t.Fatalf("%d staged jobs grew the process by %d goroutines, want at most the pool's %d", n, grown, workers)
	}
	cancel()
	d.Close() // flushes the stage to the workers
	close(out)
	got := 0
	for r := range out {
		got++
		if !IsCanceled(r.Err) || r.Objects != nil || r.Worker < 0 {
			t.Fatalf("job %d came back from worker %d with %d objects and %v, want a worker's canceled delivery",
				r.Index, r.Worker, len(r.Objects), r.Err)
		}
	}
	if got != n {
		t.Fatalf("%d results delivered for %d staged jobs", got, n)
	}
	if p, q := ex.DiskStats().PageReads, ex.Metrics().Queries; p != pages || q != ran {
		t.Fatalf("canceled jobs ran: page reads %d -> %d, engine queries %d -> %d", pages, p, ran, q)
	}
	if st := d.AdmissionStats(); st.Admitted != n || st.Canceled != n || st.BatchedQueries != n {
		t.Fatalf("AdmissionStats = %+v, want %d admitted, staged and canceled", st, n)
	}
}

// TestKnobCensus pins the configuration surface so it cannot re-accrete; the
// failure message carries the rule for whoever wants to add a field.
func TestKnobCensus(t *testing.T) {
	const rule = "a new knob needs two callers outside tests and examples that need different values — else make it a constant (see the ROADMAP standing constraint \"Knob rule\")"
	fields := func(v any) []string {
		var names []string
		typ := reflect.TypeOf(v)
		for i := 0; i < typ.NumField(); i++ {
			names = append(names, typ.Field(i).Name)
		}
		return names
	}
	if got, want := fields(AdmissionConfig{}), []string{"BatchWindow"}; !slices.Equal(got, want) {
		t.Errorf("AdmissionConfig has fields %v, want %v: %s", got, want, rule)
	}
	if got, want := fields(FaultPlan{}), []string{"Seed", "TransientRate", "PermanentRate", "Pages"}; !slices.Equal(got, want) {
		t.Errorf("FaultPlan has fields %v, want %v: %s", got, want, rule)
	}
	if n := reflect.TypeOf(AdmissionStats{}).NumField(); n != 7 {
		t.Errorf("AdmissionStats has %d fields, want 7: a counter nothing reads is a knob's shadow", n)
	}
	if n := reflect.TypeOf(Options{}).NumField(); n != 22 {
		t.Errorf("Options has %d fields, want 22: %s", n, rule)
	}
}
