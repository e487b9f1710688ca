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

func TestQueryConcurrentStreams(t *testing.T) {
	ex, queries := batchEnv(t)
	in := make(chan Query)
	go func() {
		for _, q := range queries {
			in <- q
		}
		close(in)
	}()
	seen := make(map[int]bool)
	total := 0
	for r := range ex.QueryConcurrent(in, 4) {
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

func TestDispatcherWorkerStats(t *testing.T) {
	ex, queries := batchEnv(t)
	d := NewDispatcher(ex, 4)
	if d.Workers() != 4 {
		t.Fatalf("Workers = %d", d.Workers())
	}
	out := make(chan BatchResult, len(queries))
	for i, q := range queries {
		if err := d.Submit(i, q, out); err != nil {
			t.Fatal(err)
		}
	}
	d.Close()
	d.Close() // idempotent
	if err := d.Submit(0, queries[0], out); err != ErrClosed {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
	served := 0
	for _, st := range d.WorkerStats() {
		served += st.Queries
		if st.Queries > 0 && st.Busy <= 0 {
			t.Errorf("worker %d served %d queries in zero time", st.Worker, st.Queries)
		}
	}
	if served != len(queries) {
		t.Fatalf("workers served %d queries, want %d", served, len(queries))
	}
}

// TestDispatcherAdmissionFastFail saturates the in-flight limit and asserts
// that the next submission fails fast with ErrOverloaded instead of
// queue-blocking behind the saturated pool.
func TestDispatcherAdmissionFastFail(t *testing.T) {
	ex, queries := batchEnv(t)
	// Real-time emulation makes the first (index-building) query occupy its
	// worker for hundreds of milliseconds of wall time, holding the single
	// in-flight slot while the test probes the admission gate.
	ex.SetRealTimeScale(1.0)
	d := NewDispatcherWithAdmission(ex, 1, AdmissionConfig{MaxInFlight: 1})
	out := make(chan BatchResult, 4)

	ctx, cancel := context.WithCancel(context.Background())
	if err := d.SubmitCtx(ctx, 0, queries[0], out); err != nil {
		t.Fatalf("first submission should be admitted: %v", err)
	}
	start := time.Now()
	err := d.SubmitCtx(context.Background(), 1, queries[1], out)
	elapsed := time.Since(start)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("saturated submit = %v, want ErrOverloaded", err)
	}
	if elapsed > 200*time.Millisecond {
		t.Errorf("fast-fail took %v — it queue-blocked", elapsed)
	}

	// Cut the in-flight query short and drain; the slot frees and a new
	// submission is admitted again.
	cancel()
	r := <-out
	if r.Err != nil && !IsCanceled(r.Err) {
		t.Fatalf("canceled in-flight query returned %v", r.Err)
	}
	if err := d.SubmitCtx(context.Background(), 2, queries[2], out); err != nil {
		t.Fatalf("submission after slot release: %v", err)
	}
	d.Close()
	st := d.AdmissionStats()
	if st.Rejected != 1 {
		t.Errorf("Rejected = %d, want 1", st.Rejected)
	}
	if st.Admitted != 2 {
		t.Errorf("Admitted = %d, want 2", st.Admitted)
	}
}

// TestDispatcherAdmissionQueueWait covers the bounded-wait variant: a
// submission may wait up to QueueWait for a slot, then still fails with
// ErrOverloaded rather than blocking indefinitely.
func TestDispatcherAdmissionQueueWait(t *testing.T) {
	ex, queries := batchEnv(t)
	ex.SetRealTimeScale(1.0)
	d := NewDispatcherWithAdmission(ex, 1, AdmissionConfig{
		MaxInFlight: 1,
		QueueWait:   30 * time.Millisecond,
	})
	out := make(chan BatchResult, 4)
	ctx, cancel := context.WithCancel(context.Background())
	if err := d.SubmitCtx(ctx, 0, queries[0], out); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err := d.SubmitCtx(context.Background(), 1, queries[1], out)
	elapsed := time.Since(start)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("saturated submit = %v, want ErrOverloaded", err)
	}
	if elapsed < 20*time.Millisecond || elapsed > time.Second {
		t.Errorf("bounded wait lasted %v, want ~30ms", elapsed)
	}
	cancel()
	<-out
	d.Close()
}

// TestDispatcherCancelStormGoroutineLeak floods a dispatcher with
// short-deadline queries, closes it with work still pending, and asserts
// that every admitted query still gets exactly one result and that the
// worker goroutines all exit — no leaked goroutines, no lost results.
func TestDispatcherCancelStormGoroutineLeak(t *testing.T) {
	ex, queries := batchEnv(t)
	ex.SetRealTimeScale(0.5)
	before := runtime.NumGoroutine()
	d := NewDispatcherWithAdmission(ex, 8, AdmissionConfig{
		MaxInFlight: 32,
		Deadline:    2 * time.Millisecond,
	})
	out := make(chan BatchResult, 256)
	admitted := 0
	for i := 0; i < 200; i++ {
		err := d.SubmitCtx(context.Background(), i, queries[i%len(queries)], out)
		switch {
		case err == nil:
			admitted++
		case errors.Is(err, ErrOverloaded):
		default:
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	d.Close()
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
	// Workers (and deadline timers) must all wind down after Close.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && runtime.NumGoroutine() > before+2 {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before+2 {
		t.Errorf("goroutines did not settle after Close: %d before, %d after", before, g)
	}
}

// TestDispatcherCancelAbandonsBlockedSubmit pins the backpressure escape
// hatch: without admission control a Submit blocks when the job queue is
// full, but canceling its context must abandon the wait instead of blocking
// forever (and must not wedge a concurrent Close via the held send lock).
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

// TestDispatcherSweeperReturnsDeadQueuedJobs pins the sweeper contract: a
// queued query whose context dies before any worker reaches it is returned
// to the submitter immediately (Worker == SweptWorker), counted in
// AdmissionStats.Swept, and never occupies a worker. The single worker is
// pinned down by a first query whose level-0 build runs on a real-time
// emulated disk, so the second, canceled job would otherwise sit in the
// queue for the whole build.
func TestDispatcherSweeperReturnsDeadQueuedJobs(t *testing.T) {
	ex, err := NewExplorer(Options{RealTimeScale: 1})
	if err != nil {
		t.Fatal(err)
	}
	data := GenerateDatasets(DataConfig{Seed: 5, NumObjects: 1500, Clusters: 3}, 2)
	for i, objs := range data {
		if err := ex.AddDataset(DatasetID(i), objs); err != nil {
			t.Fatal(err)
		}
	}
	d := NewDispatcher(ex, 1)
	out := make(chan BatchResult, 2)
	q := Query{Range: Cube(V(0.5, 0.5, 0.5), 0.1), Datasets: []DatasetID{0, 1}}

	// Job 0 occupies the only worker with the expensive first-touch build.
	if err := d.Submit(0, q, out); err != nil {
		t.Fatal(err)
	}
	// Job 1 queues behind it and is canceled while waiting.
	ctx, cancel := context.WithCancel(context.Background())
	if err := d.SubmitCtx(ctx, 1, q, out); err != nil {
		t.Fatal(err)
	}
	cancel()

	// The swept result must arrive long before the worker frees up.
	select {
	case r := <-out:
		if r.Index != 1 {
			t.Fatalf("first delivered result is job %d, want the swept job 1", r.Index)
		}
		if r.Worker != SweptWorker {
			t.Fatalf("swept job carries worker %d, want SweptWorker", r.Worker)
		}
		if !IsCanceled(r.Err) || !errors.Is(r.Err, ErrCanceled) {
			t.Fatalf("swept job error = %v, want a wrapped ErrCanceled", r.Err)
		}
		if r.Objects != nil {
			t.Fatalf("swept job leaked %d objects", len(r.Objects))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled queued job was not swept back while the worker was busy")
	}

	d.Close()
	close(out)
	r := <-out
	if r.Index != 0 || r.Err != nil {
		t.Fatalf("worker job result = %+v", r)
	}
	st := d.AdmissionStats()
	if st.Admitted != 2 || st.Swept != 1 || st.Canceled != 1 || st.Completed != 1 || st.Failed != 0 {
		t.Fatalf("AdmissionStats = %+v, want 2 admitted, 1 swept, 1 canceled, 1 completed", st)
	}
	if st.Admitted != st.Completed+st.Canceled+st.Failed {
		t.Fatalf("admission ledger does not balance: %+v", st)
	}
}

// TestDispatcherSweeperZombiesNeverBlockSubmit pins the admission-capacity
// side of sweeping: a swept job frees its in-flight slot immediately but
// still occupies a queue entry until a worker discards it, so a submission
// that finds the queue full of zombies must shed with ErrOverloaded —
// never block on the send (which would stall Submit and Close behind the
// busy worker).
func TestDispatcherSweeperZombiesNeverBlockSubmit(t *testing.T) {
	ex, err := NewExplorer(Options{RealTimeScale: 1})
	if err != nil {
		t.Fatal(err)
	}
	data := GenerateDatasets(DataConfig{Seed: 5, NumObjects: 1500, Clusters: 3}, 2)
	for i, objs := range data {
		if err := ex.AddDataset(DatasetID(i), objs); err != nil {
			t.Fatal(err)
		}
	}
	d := NewDispatcherWithAdmission(ex, 1, AdmissionConfig{MaxInFlight: 3})
	out := make(chan BatchResult, 4)
	q := Query{Range: Cube(V(0.5, 0.5, 0.5), 0.1), Datasets: []DatasetID{0, 1}}

	// Fill the in-flight cap: one job on the worker, two queued. The pause
	// lets the worker pop job 0 (its level-0 build then occupies it for
	// hundreds of milliseconds), so the queue afterwards holds exactly the
	// two jobs below.
	if err := d.Submit(0, q, out); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	var cancels []context.CancelFunc
	for i := 1; i <= 2; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		cancels = append(cancels, cancel)
		if err := d.SubmitCtx(ctx, i, q, out); err != nil {
			t.Fatal(err)
		}
	}
	for _, cancel := range cancels {
		cancel()
	}
	// Both queued jobs are swept back...
	for i := 0; i < 2; i++ {
		select {
		case r := <-out:
			if r.Worker != SweptWorker {
				t.Fatalf("result %d: worker %d, want SweptWorker", r.Index, r.Worker)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("queued canceled jobs were not swept")
		}
	}
	// ...freeing their slots at once: a new submission is admitted into the
	// queue entry the worker's own job left behind...
	start := time.Now()
	if err := d.Submit(3, q, out); err != nil {
		t.Fatalf("submit after sweep: %v, want admission into the freed capacity", err)
	}
	// ...and when the queue itself is full of zombies plus the admitted
	// job, the next submission sheds immediately instead of blocking on the
	// send behind the busy worker.
	err = d.Submit(4, q, out)
	elapsed := time.Since(start)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("submit into a zombie-full queue: %v, want ErrOverloaded", err)
	}
	if elapsed > 200*time.Millisecond {
		t.Errorf("submissions over a zombie backlog took %v — one of them queue-blocked", elapsed)
	}
	d.Close()
	close(out)
	st := d.AdmissionStats()
	if st.Admitted != 4 || st.Swept != 2 || st.Rejected != 1 || st.Completed != 2 {
		t.Fatalf("AdmissionStats = %+v, want 4 admitted, 2 swept, 1 rejected, 2 completed", st)
	}
	if st.Admitted != st.Completed+st.Canceled+st.Failed {
		t.Fatalf("admission ledger does not balance: %+v", st)
	}
}

// TestDispatcherQueuedJobsHoldNoGoroutine pins what a waiting job costs: a
// stage of deadline-carrying jobs nobody is executing (the batch window never
// elapses) parks no goroutine per job — the context runs the sweeper when it
// ends — and ending the context still sweeps every one of them back.
func TestDispatcherQueuedJobsHoldNoGoroutine(t *testing.T) {
	ex, queries := batchEnv(t)
	const workers, n = 2, 1000
	d := NewDispatcherWithAdmission(ex, workers, AdmissionConfig{BatchWindow: time.Hour, Deadline: time.Hour})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out := make(chan BatchResult, n)
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
	for i := 0; i < n; i++ {
		select {
		case r := <-out:
			if r.Worker != SweptWorker || !IsCanceled(r.Err) {
				t.Fatalf("job %d came back from worker %d with %v, want swept and canceled", r.Index, r.Worker, r.Err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d staged jobs swept back after their context ended", i, n)
		}
	}
	d.Close()
	if st := d.AdmissionStats(); st.Admitted != n || st.Swept != n || st.Canceled != n {
		t.Fatalf("AdmissionStats = %+v, want %d admitted, swept and canceled", st, n)
	}
}

// TestKnobCensus pins the configuration surface so it cannot re-accrete; the
// failure message carries the rule for whoever wants to add a field.
func TestKnobCensus(t *testing.T) {
	const rule = "a new knob needs two callers outside tests and examples that need different values — else make it a constant (see ROADMAP item 2)"
	var got []string
	adm := reflect.TypeOf(AdmissionConfig{})
	for i := 0; i < adm.NumField(); i++ {
		got = append(got, adm.Field(i).Name)
	}
	if want := []string{"MaxInFlight", "Deadline", "QueueWait", "BatchWindow"}; !slices.Equal(got, want) {
		t.Errorf("AdmissionConfig has fields %v, want %v: %s", got, want, rule)
	}
	if n := reflect.TypeOf(AdmissionStats{}).NumField(); n != 8 {
		t.Errorf("AdmissionStats has %d fields, want 8: a counter nothing reads is a knob's shadow", n)
	}
	if n := reflect.TypeOf(Options{}).NumField(); n != 24 {
		t.Errorf("Options has %d fields, want 24: %s", n, rule)
	}
}
