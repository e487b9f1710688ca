package rawfile

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"spaceodyssey/internal/geom"
	"spaceodyssey/internal/object"
	"spaceodyssey/internal/simdisk"
)

func mkObjs(n int, seed int64) []object.Object {
	r := rand.New(rand.NewSource(seed))
	objs := make([]object.Object, n)
	for i := range objs {
		objs[i] = object.Object{
			ID:      uint64(i),
			Dataset: 3,
			Center:  geom.V(r.Float64()*10, r.Float64()*10, r.Float64()*10),
			HalfExtent: geom.V(
				r.Float64()*0.1, r.Float64()*0.1, r.Float64()*0.1),
		}
	}
	return objs
}

func TestWriteAndScan(t *testing.T) {
	dev := simdisk.NewDeviceChannels(simdisk.CostModel{}, 0, 1)
	objs := mkObjs(200, 1)
	raw, err := Write(dev, "ds3.raw", 3, objs)
	if err != nil {
		t.Fatal(err)
	}
	if raw.NumObjects() != 200 {
		t.Fatalf("NumObjects = %d", raw.NumObjects())
	}
	if raw.Name() != "ds3.raw" || raw.Dataset() != 3 {
		t.Fatalf("metadata: %q %d", raw.Name(), raw.Dataset())
	}
	if want := object.PagesFor(200); raw.NumPages() != want {
		t.Fatalf("NumPages = %d, want %d", raw.NumPages(), want)
	}
	got, err := raw.AppendAllCtx(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 200 {
		t.Fatalf("All returned %d", len(got))
	}
	for i := range objs {
		if got[i] != objs[i] {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

func TestBounds(t *testing.T) {
	dev := simdisk.NewDeviceChannels(simdisk.CostModel{}, 0, 1)
	objs := []object.Object{
		{ID: 1, Center: geom.V(0, 0, 0), HalfExtent: geom.V(1, 1, 1)},
		{ID: 2, Center: geom.V(10, 10, 10), HalfExtent: geom.V(2, 2, 2)},
	}
	raw, err := Write(dev, "b", 0, objs)
	if err != nil {
		t.Fatal(err)
	}
	b := raw.Bounds()
	if b.Min != geom.V(-1, -1, -1) || b.Max != geom.V(12, 12, 12) {
		t.Fatalf("Bounds = %v", b)
	}
}

func TestScanRange(t *testing.T) {
	dev := simdisk.NewDeviceChannels(simdisk.CostModel{}, 0, 1)
	objs := mkObjs(500, 2)
	raw, err := Write(dev, "r", 0, objs)
	if err != nil {
		t.Fatal(err)
	}
	q := geom.NewBox(geom.V(2, 2, 2), geom.V(5, 5, 5))
	var got []object.Object
	if err := raw.ScanRange(context.Background(), q, func(o object.Object) error {
		got = append(got, o)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, o := range objs {
		if o.Intersects(q) {
			want++
		}
	}
	if len(got) != want || want == 0 {
		t.Fatalf("ScanRange found %d, naive found %d", len(got), want)
	}
	for _, o := range got {
		if !o.Intersects(q) {
			t.Fatalf("non-intersecting object %d returned", o.ID)
		}
	}
}

func TestScanAbortsOnCallbackError(t *testing.T) {
	dev := simdisk.NewDeviceChannels(simdisk.CostModel{}, 0, 1)
	raw, err := Write(dev, "r", 0, mkObjs(100, 3))
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("stop")
	calls := 0
	err = raw.ScanCtx(context.Background(), func(o object.Object) error {
		calls++
		if calls == 5 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if calls != 5 {
		t.Fatalf("callback ran %d times", calls)
	}
}

func TestWriteRejectsInvalidObjects(t *testing.T) {
	dev := simdisk.NewDeviceChannels(simdisk.CostModel{}, 0, 1)
	bad := []object.Object{{ID: 1, HalfExtent: geom.V(-1, 0, 0)}}
	if _, err := Write(dev, "bad", 0, bad); err == nil {
		t.Fatal("invalid object accepted")
	}
}

// unionFold is the bounds fold box by box: o.Box() folded with math.Min and
// math.Max — the reference the one-pass fold of the Bounds probe must equal
// bit for bit over the objects Write stored.
func unionFold(objs []object.Object) geom.Box {
	var b geom.Box
	for i, o := range objs {
		ob := o.Box()
		if i == 0 {
			b = ob
			continue
		}
		b.Min = geom.V(math.Min(b.Min.X, ob.Min.X), math.Min(b.Min.Y, ob.Min.Y), math.Min(b.Min.Z, ob.Min.Z))
		b.Max = geom.V(math.Max(b.Max.X, ob.Max.X), math.Max(b.Max.Y, ob.Max.Y), math.Max(b.Max.Z, ob.Max.Z))
	}
	return b
}

func sameBits(a, b geom.Box) bool {
	bits := func(b geom.Box) [6]uint64 {
		return [6]uint64{
			math.Float64bits(b.Min.X), math.Float64bits(b.Min.Y), math.Float64bits(b.Min.Z),
			math.Float64bits(b.Max.X), math.Float64bits(b.Max.Y), math.Float64bits(b.Max.Z),
		}
	}
	return bits(a) == bits(b)
}

// edgyObjs draws n valid objects whose coordinates mix plain values with the
// ones a fold can get wrong: -0 centres, zero, -0 and subnormal extents, and
// finite coordinates so large that a corner overflows to ±Inf.
func edgyObjs(r *rand.Rand, n int) []object.Object {
	coord := func() float64 {
		switch r.Intn(8) {
		case 0:
			return math.Copysign(0, -1)
		case 1:
			return 0
		case 2:
			return math.MaxFloat64 * float64(2*r.Intn(2)-1)
		case 3:
			return math.SmallestNonzeroFloat64 * float64(2*r.Intn(2)-1)
		default:
			return r.NormFloat64() * 100
		}
	}
	ext := func() float64 {
		switch r.Intn(6) {
		case 0:
			return 0
		case 1:
			return math.Copysign(0, -1)
		case 2:
			return math.SmallestNonzeroFloat64 * float64(1+r.Intn(4))
		case 3:
			return math.MaxFloat64 / float64(1+r.Intn(2))
		default:
			return r.Float64()
		}
	}
	objs := make([]object.Object, n)
	for i := range objs {
		objs[i] = object.Object{
			ID:         uint64(i),
			Center:     geom.V(coord(), coord(), coord()),
			HalfExtent: geom.V(ext(), ext(), ext()),
		}
	}
	return objs
}

// Write stores what it was given and validates it in one pass: the bounds
// of the stored objects equal the per-object Union fold bit for bit; the
// first invalid object — NaN, ±Inf or a negative extent, first, in the
// middle or last, a second bad one after it — fails the write with exactly
// its Validate error, before the device holds a page or charges a tick.
func TestWriteMatchesPerObjectFold(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	dev := simdisk.NewDeviceChannels(simdisk.CostModel{Seek: 1000, Transfer: 1}, 0, 1)
	nan, inf := math.NaN(), math.Inf(1)
	corrupt := []func(*object.Object){
		func(o *object.Object) { o.Center.X = nan },
		func(o *object.Object) { o.Center.Y = inf },
		func(o *object.Object) { o.Center.Z = -inf },
		func(o *object.Object) { o.HalfExtent.X = nan },
		func(o *object.Object) { o.HalfExtent.Y = inf },
		func(o *object.Object) { o.HalfExtent.Z = -inf },
		func(o *object.Object) { o.HalfExtent.X = -1 },
		func(o *object.Object) { o.HalfExtent.Z = -math.SmallestNonzeroFloat64 },
	}
	for trial := range 300 {
		objs := edgyObjs(r, 1+r.Intn(200))
		name := fmt.Sprintf("t%d", trial)
		raw, err := Write(dev, name, 0, objs)
		if err != nil {
			t.Fatalf("trial %d: valid dataset rejected: %v", trial, err)
		}
		if got, want := raw.Bounds(), unionFold(objs); !sameBits(got, want) {
			t.Fatalf("trial %d: Bounds = %v, fold of boxes %v", trial, got, want)
		}
		if err := raw.Delete(); err != nil {
			t.Fatal(err)
		}

		at := []int{0, len(objs) / 2, len(objs) - 1}[r.Intn(3)]
		corrupt[r.Intn(len(corrupt))](&objs[at])
		if at+1 < len(objs) {
			corrupt[r.Intn(len(corrupt))](&objs[at+1+r.Intn(len(objs)-at-1)])
		}
		want := fmt.Errorf("rawfile %q: %w", name, objs[at].Validate())
		pages, clock := dev.Stats().PageWrites, dev.Clock()
		_, err = Write(dev, name, 0, objs)
		if err == nil || err.Error() != want.Error() || errors.Is(err, object.ErrNonFiniteVec) != errors.Is(want, object.ErrNonFiniteVec) {
			t.Fatalf("trial %d: bad object %v at %d of %d: err = %v, want %v", trial, objs[at], at, len(objs), err, want)
		}
		if dev.Stats().PageWrites != pages || dev.Clock() != clock {
			t.Fatalf("trial %d: rejected write wrote %d pages (was %d), clock %v (was %v)",
				trial, dev.Stats().PageWrites, pages, dev.Clock(), clock)
		}
	}
}

// A -0 half-extent is no extent, not a negative one: Validate accepts it, and
// so must the pass that skips Validate for objects it can tell are valid.
func TestWriteAcceptsNegativeZeroExtent(t *testing.T) {
	dev := simdisk.NewDeviceChannels(simdisk.CostModel{}, 0, 1)
	negZero := math.Copysign(0, -1)
	objs := []object.Object{
		{ID: 1, Center: geom.V(negZero, 1, 2), HalfExtent: geom.Splat(negZero)},
		{ID: 2, Center: geom.V(3, negZero, 4), HalfExtent: geom.V(negZero, 0.5, negZero)},
	}
	raw, err := Write(dev, "negzero", 0, objs)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := raw.Bounds(), unionFold(objs); !sameBits(got, want) {
		t.Fatalf("Bounds = %v, fold of boxes %v", got, want)
	}
}

func TestDelete(t *testing.T) {
	dev := simdisk.NewDeviceChannels(simdisk.CostModel{}, 0, 1)
	raw, err := Write(dev, "r", 0, mkObjs(10, 4))
	if err != nil {
		t.Fatal(err)
	}
	if err := raw.Delete(); err != nil {
		t.Fatal(err)
	}
	if err := raw.ScanCtx(context.Background(), func(object.Object) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("scan after delete: %v", err)
	}
	if err := raw.Delete(); !errors.Is(err, ErrClosed) {
		t.Fatalf("double delete: %v", err)
	}
}

func TestScanChargesSequentialCost(t *testing.T) {
	cost := simdisk.CostModel{Seek: 1000, Transfer: 1}
	dev := simdisk.NewDeviceChannels(cost, 0, 1)
	raw, err := Write(dev, "r", 0, mkObjs(object.PageCapacity*10, 5))
	if err != nil {
		t.Fatal(err)
	}
	dev.ResetClock()
	dev.DropCaches()
	if err := raw.ScanCtx(context.Background(), func(object.Object) error { return nil }); err != nil {
		t.Fatal(err)
	}
	// One seek, then 10 sequential transfers.
	want := cost.Seek + 10*cost.Transfer
	if got := dev.Clock(); got != want {
		t.Fatalf("scan cost = %v, want %v", got, want)
	}
}

func TestScanPropagatesDeviceFault(t *testing.T) {
	dev := simdisk.NewDeviceChannels(simdisk.CostModel{}, 0, 1)
	raw, err := Write(dev, "r", 0, mkObjs(object.PageCapacity*3, 6))
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("media error")
	// Raw files are created on a fresh device; file IDs start at 1.
	dev.SetFaultPlan(simdisk.FaultPlan{Pages: []simdisk.PageFault{{File: 1, Page: 1, Count: 1, Err: boom}}})
	if err := raw.ScanCtx(context.Background(), func(object.Object) error { return nil }); !errors.Is(err, boom) {
		t.Fatalf("fault not propagated: %v", err)
	}
}

func TestEmptyRawFile(t *testing.T) {
	dev := simdisk.NewDeviceChannels(simdisk.CostModel{}, 0, 1)
	raw, err := Write(dev, "empty", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if raw.NumObjects() != 0 || raw.NumPages() != 0 {
		t.Fatalf("empty file: %d objects %d pages", raw.NumObjects(), raw.NumPages())
	}
	if err := raw.ScanCtx(context.Background(), func(object.Object) error {
		t.Fatal("callback invoked on empty file")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// runRecorder is a Storage that notes the runs read through it and can cancel
// a context before the nth.
type runRecorder struct {
	simdisk.Storage
	runs     [][2]int64 // start, count
	cancelAt int        // 1-based read to cancel before; 0: never
	cancel   context.CancelFunc
}

func (s *runRecorder) ReadRunCtx(ctx context.Context, id simdisk.FileID, start, n int64) ([]byte, error) {
	s.runs = append(s.runs, [2]int64{start, n})
	if len(s.runs) == s.cancelAt {
		s.cancel()
	}
	return s.Storage.ReadRunCtx(ctx, id, start, n)
}

// TestAppendAllMatchesScan: the level-0 build's scan decodes where it lands,
// and is otherwise ScanCtx — the same records in the same order after whatever
// dst held, the same runs read in the same order for the same simulated cost,
// the same error for a bad page, and a cancellation observed at the same
// chunk boundary.
func TestAppendAllMatchesScan(t *testing.T) {
	cost := simdisk.CostModel{Seek: 1000, Transfer: 7, CacheHit: 1}
	rec := &runRecorder{Storage: simdisk.NewDeviceChannels(cost, 64, 1)}
	objs := mkObjs(object.PageCapacity*300+17, 9) // two full chunks and a partial one
	raw, err := Write(rec, "r", 0, objs)
	if err != nil {
		t.Fatal(err)
	}
	measure := func(read func() error) (runs [][2]int64, clock time.Duration, stats simdisk.Stats) {
		t.Helper()
		rec.ResetClock()
		rec.ResetStats()
		rec.DropCaches()
		rec.runs = nil
		if err := read(); err != nil {
			t.Fatal(err)
		}
		return rec.runs, rec.Clock(), rec.Stats()
	}
	var scanned []object.Object
	wantRuns, wantClock, wantStats := measure(func() error {
		return raw.ScanCtx(context.Background(), func(o object.Object) error {
			scanned = append(scanned, o)
			return nil
		})
	})
	prefix := mkObjs(3, 10)
	var got []object.Object
	gotRuns, gotClock, gotStats := measure(func() (err error) {
		got, err = raw.AppendAllCtx(context.Background(), slices.Clone(prefix))
		return err
	})
	if !slices.Equal(got[:len(prefix)], prefix) || !slices.Equal(got[len(prefix):], scanned) || !slices.Equal(scanned, objs) {
		t.Fatalf("AppendAllCtx returned %d records after a prefix of %d, ScanCtx visited %d of %d", len(got), len(prefix), len(scanned), len(objs))
	}
	if !slices.Equal(gotRuns, wantRuns) || len(wantRuns) != 3 {
		t.Fatalf("AppendAllCtx read runs %v, ScanCtx %v", gotRuns, wantRuns)
	}
	if gotClock != wantClock || gotStats != wantStats {
		t.Fatalf("AppendAllCtx cost %v %+v, ScanCtx %v %+v", gotClock, gotStats, wantClock, wantStats)
	}

	// Cancelled before the second chunk is read: the first chunk's records
	// come back with the error.
	ctx, cancel := context.WithCancel(context.Background())
	rec.runs, rec.cancelAt, rec.cancel = nil, 2, cancel
	part, err := raw.AppendAllCtx(ctx, nil)
	rec.cancelAt = 0
	if !errors.Is(err, context.Canceled) || len(part) != scanChunkPages*object.PageCapacity {
		t.Fatalf("cancelled scan: %d records, err %v; want the first chunk's %d and context.Canceled", len(part), err, scanChunkPages*object.PageCapacity)
	}

	// A page that fails its check is named the way ScanCtx names it.
	if err := rec.WritePageCtx(context.Background(), raw.file.ID(), 130, make([]byte, simdisk.PageSize)); err != nil {
		t.Fatal(err)
	}
	scanErr := raw.ScanCtx(context.Background(), func(object.Object) error { return nil })
	_, appendErr := raw.AppendAllCtx(context.Background(), nil)
	if !errors.Is(appendErr, object.ErrBadMagic) || appendErr.Error() != scanErr.Error() || !strings.Contains(appendErr.Error(), `rawfile "r" page 130`) {
		t.Fatalf("bad page: AppendAllCtx %v, ScanCtx %v", appendErr, scanErr)
	}

	if err := raw.Delete(); err != nil {
		t.Fatal(err)
	}
	if _, err := raw.AppendAllCtx(context.Background(), nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("AppendAllCtx on a deleted file: %v", err)
	}
}

// BenchmarkRawWrite is AddDataset's device-side cost: validating, bounding,
// encoding and appending a 100,000-object dataset to a fresh device.
func BenchmarkRawWrite(b *testing.B) {
	const n = 100_000
	objs := mkObjs(n, 12)
	b.ReportAllocs()
	for b.Loop() {
		dev := simdisk.NewDeviceChannels(simdisk.CostModel{}, 0, 1)
		if _, err := Write(dev, "bench", 3, objs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/object")
}
