package pagefile

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"testing"

	"spaceodyssey/internal/geom"
	"spaceodyssey/internal/object"
	"spaceodyssey/internal/simdisk"
)

func newFile(t *testing.T) *File {
	t.Helper()
	dev := simdisk.NewDevice(simdisk.CostModel{}, 0)
	return Create(dev, "test")
}

func mkObjs(n int, seed int64) []object.Object {
	r := rand.New(rand.NewSource(seed))
	objs := make([]object.Object, n)
	for i := range objs {
		objs[i] = object.Object{
			ID:         uint64(i),
			Dataset:    object.DatasetID(r.Intn(10)),
			Center:     geom.V(r.Float64(), r.Float64(), r.Float64()),
			HalfExtent: geom.V(r.Float64()*0.01, r.Float64()*0.01, r.Float64()*0.01),
		}
	}
	return objs
}

func TestAppendAndReadRun(t *testing.T) {
	f := newFile(t)
	objs := mkObjs(object.PageCapacity*2+5, 1)
	run, err := f.AppendObjectsCtx(context.Background(), objs)
	if err != nil {
		t.Fatal(err)
	}
	if run.Start != 0 || run.Count != 3 {
		t.Fatalf("run = %+v", run)
	}
	got, err := f.ReadRunIntoCtx(context.Background(), nil, run)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(objs) {
		t.Fatalf("read %d objects, want %d", len(got), len(objs))
	}
	for i := range objs {
		if got[i] != objs[i] {
			t.Fatalf("object %d mismatch", i)
		}
	}
}

func TestAppendEmpty(t *testing.T) {
	f := newFile(t)
	run, err := f.AppendObjectsCtx(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if run.Count != 0 {
		t.Fatalf("empty append run = %+v", run)
	}
	got, err := f.ReadRunIntoCtx(context.Background(), nil, run)
	if err != nil || len(got) != 0 {
		t.Fatalf("read empty run: %v, %d objects", err, len(got))
	}
}

func TestOverwriteObjects(t *testing.T) {
	f := newFile(t)
	orig := mkObjs(object.PageCapacity*3, 2)
	run, err := f.AppendObjectsCtx(context.Background(), orig)
	if err != nil {
		t.Fatal(err)
	}
	// Overwrite with fewer objects; trailing pages must be emptied.
	repl := mkObjs(object.PageCapacity+1, 3)
	used, err := f.OverwriteObjectsCtx(context.Background(), run, repl)
	if err != nil {
		t.Fatal(err)
	}
	if used.Count != 2 {
		t.Fatalf("used = %+v", used)
	}
	// Reading the full original run yields only the replacement records.
	got, err := f.ReadRunIntoCtx(context.Background(), nil, run)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(repl) {
		t.Fatalf("read %d, want %d (stale records resurfaced?)", len(got), len(repl))
	}
	for i := range repl {
		if got[i] != repl[i] {
			t.Fatalf("object %d mismatch", i)
		}
	}
}

func TestOverwriteTooMany(t *testing.T) {
	f := newFile(t)
	run, err := f.AppendObjectsCtx(context.Background(), mkObjs(object.PageCapacity, 4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.OverwriteObjectsCtx(context.Background(), run, mkObjs(object.PageCapacity+1, 5)); err == nil {
		t.Fatal("overflow overwrite succeeded")
	}
}

func TestReadRuns(t *testing.T) {
	f := newFile(t)
	a := mkObjs(10, 6)
	b := mkObjs(20, 7)
	ra, err := f.AppendObjectsCtx(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := f.AppendObjectsCtx(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.ReadRunsIntoCtx(context.Background(), nil, []Run{ra, rb})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 30 {
		t.Fatalf("read %d", len(got))
	}
	for i := range a {
		if got[i] != a[i] {
			t.Fatalf("run a object %d mismatch", i)
		}
	}
	for i := range b {
		if got[10+i] != b[i] {
			t.Fatalf("run b object %d mismatch", i)
		}
	}
}

func TestWriteIntoReusesPagesThenAppends(t *testing.T) {
	f := newFile(t)
	// Occupy pages 0..4.
	parent, err := f.AppendObjectsCtx(context.Background(), mkObjs(object.PageCapacity*5, 8))
	if err != nil {
		t.Fatal(err)
	}
	if parent.Count != 5 {
		t.Fatalf("parent = %+v", parent)
	}
	// Write 7 pages worth: 5 reused + 2 appended.
	objs := mkObjs(object.PageCapacity*7, 9)
	runs, err := f.WriteIntoCtx(context.Background(), []Run{parent}, objs)
	if err != nil {
		t.Fatal(err)
	}
	if Pages(runs) != 7 {
		t.Fatalf("runs = %+v", runs)
	}
	// Parent occupied pages [0,5); overflow appended at [5,7) is contiguous,
	// so WriteInto reports a single merged run.
	if len(runs) != 1 || runs[0] != (Run{0, 7}) {
		t.Fatalf("runs = %+v, want single merged run {0 7}", runs)
	}
	if n, _ := f.NumPages(); n != 7 {
		t.Fatalf("file has %d pages, want 7", n)
	}
	got, err := f.ReadRunsIntoCtx(context.Background(), nil, runs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(objs) {
		t.Fatalf("read %d, want %d", len(got), len(objs))
	}
	for i := range objs {
		if got[i] != objs[i] {
			t.Fatalf("object %d mismatch", i)
		}
	}
}

func TestWriteIntoMergesAdjacentRuns(t *testing.T) {
	f := newFile(t)
	// Two adjacent reuse runs [0,2) and [2,4).
	if _, err := f.AppendObjectsCtx(context.Background(), mkObjs(object.PageCapacity*4, 10)); err != nil {
		t.Fatal(err)
	}
	objs := mkObjs(object.PageCapacity*4, 11)
	runs, err := f.WriteIntoCtx(context.Background(), []Run{{0, 2}, {2, 2}}, objs)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 || runs[0] != (Run{0, 4}) {
		t.Fatalf("adjacent runs not merged: %+v", runs)
	}
}

func TestWriteIntoSmallData(t *testing.T) {
	f := newFile(t)
	if _, err := f.AppendObjectsCtx(context.Background(), mkObjs(object.PageCapacity*4, 12)); err != nil {
		t.Fatal(err)
	}
	// One object: should use a single reused page, no appends.
	objs := mkObjs(1, 13)
	runs, err := f.WriteIntoCtx(context.Background(), []Run{{0, 4}}, objs)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 || runs[0] != (Run{0, 1}) {
		t.Fatalf("runs = %+v", runs)
	}
	if n, _ := f.NumPages(); n != 4 {
		t.Fatalf("file grew to %d pages", n)
	}
}

func TestWriteIntoNoReuse(t *testing.T) {
	f := newFile(t)
	objs := mkObjs(5, 14)
	runs, err := f.WriteIntoCtx(context.Background(), nil, objs)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 || runs[0].Count != 1 {
		t.Fatalf("runs = %+v", runs)
	}
}

func TestReadRunPropagatesDeviceError(t *testing.T) {
	dev := simdisk.NewDevice(simdisk.CostModel{}, 0)
	f := Create(dev, "test")
	run, err := f.AppendObjectsCtx(context.Background(), mkObjs(object.PageCapacity*2, 15))
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("media error")
	dev.SetFaultPlan(simdisk.FaultPlan{Pages: []simdisk.PageFault{{File: f.ID(), Page: 1, Count: 1, Err: boom}}})
	if _, err := f.ReadRunIntoCtx(context.Background(), nil, run); !errors.Is(err, boom) {
		t.Fatalf("device fault not propagated: %v", err)
	}
}

func TestReadRunDetectsCorruption(t *testing.T) {
	dev := simdisk.NewDevice(simdisk.CostModel{}, 0)
	f := Create(dev, "test")
	run, err := f.AppendObjectsCtx(context.Background(), mkObjs(object.PageCapacity, 16))
	if err != nil {
		t.Fatal(err)
	}
	// Overwrite the page with garbage directly on the device.
	garbage := make([]byte, simdisk.PageSize)
	for i := range garbage {
		garbage[i] = 0x5A
	}
	if err := dev.WritePageCtx(context.Background(), f.ID(), 0, garbage); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReadRunIntoCtx(context.Background(), nil, run); !errors.Is(err, object.ErrBadMagic) {
		t.Fatalf("corruption not detected: %v", err)
	}
}

func TestPagesHelper(t *testing.T) {
	if got := Pages(nil); got != 0 {
		t.Errorf("Pages(nil) = %d", got)
	}
	if got := Pages([]Run{{0, 3}, {7, 2}}); got != 5 {
		t.Errorf("Pages = %d", got)
	}
}

func TestDelete(t *testing.T) {
	f := newFile(t)
	run, err := f.AppendObjectsCtx(context.Background(), mkObjs(3, 17))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Delete(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReadRunIntoCtx(context.Background(), nil, run); !errors.Is(err, simdisk.ErrNoSuchFile) {
		t.Fatalf("read after delete: %v", err)
	}
}

// Property: WriteInto over random reuse layouts and sizes always reads back
// exactly what was written, in order, and never grows the file more than the
// overflow requires.
func TestWriteIntoRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(18))
	for trial := 0; trial < 60; trial++ {
		f := newFile(t)
		// Build a file with some pages to reuse.
		totalPages := 1 + r.Intn(6)
		if _, err := f.AppendObjectsCtx(context.Background(), mkObjs(object.PageCapacity*totalPages, int64(trial))); err != nil {
			t.Fatal(err)
		}
		// Random non-overlapping reuse runs.
		var reuse []Run
		p := int64(0)
		for p < int64(totalPages) {
			cnt := int64(1 + r.Intn(2))
			if p+cnt > int64(totalPages) {
				cnt = int64(totalPages) - p
			}
			if r.Intn(2) == 0 {
				reuse = append(reuse, Run{p, cnt})
			}
			p += cnt
		}
		n := r.Intn(object.PageCapacity * 8)
		objs := mkObjs(n, int64(trial*31))
		runs, err := f.WriteIntoCtx(context.Background(), reuse, objs)
		if err != nil {
			t.Fatal(err)
		}
		if Pages(runs) != object.PagesFor(n) {
			t.Fatalf("trial %d: runs hold %d pages, want %d", trial, Pages(runs), object.PagesFor(n))
		}
		got, err := f.ReadRunsIntoCtx(context.Background(), nil, runs)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != n {
			t.Fatalf("trial %d: read %d, want %d", trial, len(got), n)
		}
		for i := range objs {
			if got[i] != objs[i] {
				t.Fatalf("trial %d: object %d mismatch", trial, i)
			}
		}
	}
}

// The pool retains slices up to one maximal run's worth of objects and drops
// anything larger (a whole level-0 partition, a huge result).
func TestPoolRetentionBound(t *testing.T) {
	for capObjs, want := range map[int]bool{
		0:                 true,
		MaxPooledObjs:     true,
		MaxPooledObjs + 1: false,
		100_000:           false,
	} {
		if got := poolableObjs(capObjs); got != want {
			t.Errorf("poolableObjs(%d) = %v, want %v", capObjs, got, want)
		}
	}
	// A caller that grew its slice past the bound puts it back harmlessly.
	sp := GetObjSlice()
	*sp = make([]object.Object, 0, MaxPooledObjs+1)
	PutObjSlice(sp)
	if got := GetObjSlice(); len(*got) != 0 {
		t.Fatalf("GetObjSlice returned %d stale objects", len(*got))
	}
}

// readRunInto is the measured operation of the read guard and benchmark: one
// 4-page run of perPage records a page, decoded into a dst with room.
func readRunInto(tb testing.TB, perPage int) (f *File, run Run, dst []object.Object) {
	tb.Helper()
	f = Create(simdisk.NewDevice(simdisk.CostModel{}, 0), "test")
	objs := mkObjs(4*perPage, 21)
	for p := 0; p < 4; p++ {
		r, err := f.AppendObjectsCtx(context.Background(), objs[p*perPage:(p+1)*perPage])
		if err != nil {
			tb.Fatal(err)
		}
		run.Count += r.Count
	}
	return f, run, make([]object.Object, 0, 4*perPage)
}

// Allocation guards of the page path. A run read into a pre-sized dst on a
// warm pool allocates nothing page-sized (it used to allocate the run's
// n*PageSize buffer and a temporary slice per page), and an append allocates
// the pages the device stores and nothing page-sized beside them (it used to
// allocate every page twice: the encoder's and the device's copy).
func TestPagePathAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	f, run, dst := readRunInto(t, object.PageCapacity)
	if got := bytesPerOp(500, func() {
		if _, err := f.ReadRunIntoCtx(context.Background(), dst, run); err != nil {
			t.Fatal(err)
		}
	}); got >= 1024 {
		t.Errorf("ReadRunIntoCtx of a 4-page run: %d B/op, want < 1 KB", got)
	}

	objs := mkObjs(4*object.PageCapacity, 22)
	dev := simdisk.NewDevice(simdisk.CostModel{}, 0)
	if got, limit := bytesPerOp(500, func() {
		if _, err := Create(dev, "test").AppendObjectsCtx(context.Background(), objs); err != nil {
			t.Fatal(err)
		}
	}), uint64(4*simdisk.PageSize+2048); got >= limit {
		t.Errorf("appending 4 pages to a fresh file: %d B/op, want < %d (the stored pages and nothing page-sized beside them)", got, limit)
	}
}

// bytesPerOp is what testing.Benchmark's AllocedBytesPerOp reports, over a
// fixed number of runs (after one to warm the pools) instead of a second's
// worth — the append above keeps every page it writes.
func bytesPerOp(runs int, op func()) uint64 {
	op()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		op()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// BenchmarkReadRunInto reads full pages, and pages at the 30 % fill of the
// paper workload's octree and merge files, where the device copies the
// stored third of each page and clears the rest.
func BenchmarkReadRunInto(b *testing.B) {
	for _, bc := range []struct {
		name    string
		perPage int
	}{{"full", object.PageCapacity}, {"fill30", 19}} {
		b.Run(bc.name, func(b *testing.B) {
			f, run, dst := readRunInto(b, bc.perPage)
			b.ReportAllocs()
			b.SetBytes(run.Count * simdisk.PageSize)
			for b.Loop() {
				if _, err := f.ReadRunIntoCtx(context.Background(), dst, run); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
