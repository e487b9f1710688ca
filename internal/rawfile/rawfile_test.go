package rawfile

import (
	"context"
	"errors"
	"math/rand"
	"testing"

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
	dev := simdisk.NewDevice(simdisk.CostModel{}, 0)
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
	got, err := raw.All(context.Background())
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
	dev := simdisk.NewDevice(simdisk.CostModel{}, 0)
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
	dev := simdisk.NewDevice(simdisk.CostModel{}, 0)
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
	dev := simdisk.NewDevice(simdisk.CostModel{}, 0)
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
	dev := simdisk.NewDevice(simdisk.CostModel{}, 0)
	bad := []object.Object{{ID: 1, HalfExtent: geom.V(-1, 0, 0)}}
	if _, err := Write(dev, "bad", 0, bad); err == nil {
		t.Fatal("invalid object accepted")
	}
}

func TestDelete(t *testing.T) {
	dev := simdisk.NewDevice(simdisk.CostModel{}, 0)
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
	dev := simdisk.NewDevice(cost, 0)
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
	dev := simdisk.NewDevice(simdisk.CostModel{}, 0)
	raw, err := Write(dev, "r", 0, mkObjs(object.PageCapacity*3, 6))
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("media error")
	// Raw files are created on a fresh device; file IDs start at 1.
	dev.InjectReadFault(simdisk.FileID(1), 1, boom)
	if err := raw.ScanCtx(context.Background(), func(object.Object) error { return nil }); !errors.Is(err, boom) {
		t.Fatalf("fault not propagated: %v", err)
	}
}

func TestEmptyRawFile(t *testing.T) {
	dev := simdisk.NewDevice(simdisk.CostModel{}, 0)
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
