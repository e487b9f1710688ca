package object

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"spaceodyssey/internal/geom"
	"spaceodyssey/internal/simdisk"
)

func randObject(r *rand.Rand) Object {
	return Object{
		ID:      r.Uint64(),
		Dataset: DatasetID(r.Uint32()),
		Center: geom.V(
			r.Float64()*200-100, r.Float64()*200-100, r.Float64()*200-100),
		HalfExtent: geom.V(r.Float64(), r.Float64(), r.Float64()),
	}
}

func TestRecordRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	buf := make([]byte, RecordSize)
	for i := 0; i < 1000; i++ {
		o := randObject(r)
		EncodeRecord(buf, o)
		got := DecodeRecord(buf)
		if got != o {
			t.Fatalf("round trip mismatch: got %+v want %+v", got, o)
		}
	}
}

func TestPageRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, n := range []int{0, 1, 7, PageCapacity} {
		objs := make([]Object, n)
		for i := range objs {
			objs[i] = randObject(r)
		}
		page, err := EncodePage(objs)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(page) != simdisk.PageSize {
			t.Fatalf("n=%d: page size %d", n, len(page))
		}
		got, err := DecodePage(page)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(got) != n {
			t.Fatalf("n=%d: decoded %d", n, len(got))
		}
		for i := range objs {
			if got[i] != objs[i] {
				t.Fatalf("n=%d: record %d mismatch", n, i)
			}
		}
	}
}

func TestEncodePageTooMany(t *testing.T) {
	objs := make([]Object, PageCapacity+1)
	if _, err := EncodePage(objs); !errors.Is(err, ErrPageFull) {
		t.Fatalf("err = %v", err)
	}
}

func TestDecodePageErrors(t *testing.T) {
	page, err := EncodePage([]Object{{ID: 1}})
	if err != nil {
		t.Fatal(err)
	}

	if _, err := DecodePage(page[:100]); !errors.Is(err, ErrShortBuffer) {
		t.Errorf("short buffer: %v", err)
	}

	bad := append([]byte(nil), page...)
	bad[0] = 0xFF // break magic
	if _, err := DecodePage(bad); !errors.Is(err, ErrBadMagic) {
		t.Errorf("bad magic: %v", err)
	}

	bad = append([]byte(nil), page...)
	bad[simdisk.PageSize-1] ^= 0xFF // flip payload bit
	if _, err := DecodePage(bad); !errors.Is(err, ErrBadChecksum) {
		t.Errorf("corruption: %v", err)
	}

	bad = append([]byte(nil), page...)
	bad[2] = 0xFF // absurd count: the checksum covers it too, but
	bad[3] = 0xFF // AppendPageInto checks the count before the checksum
	if _, err := DecodePage(bad); !errors.Is(err, ErrBadCount) {
		t.Errorf("bad count: %v", err)
	}
}

func TestAppendPageInto(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	a := []Object{randObject(r)}
	page, err := EncodePage([]Object{randObject(r), randObject(r)})
	if err != nil {
		t.Fatal(err)
	}
	out, err := AppendPageInto(a, page)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("len = %d", len(out))
	}
	if _, err := AppendPageInto(nil, make([]byte, simdisk.PageSize)); err == nil {
		t.Error("decoding zero page succeeded")
	}
}

func TestObjectBoxAndIntersects(t *testing.T) {
	o := Object{Center: geom.V(1, 1, 1), HalfExtent: geom.V(0.5, 0.5, 0.5)}
	b := o.Box()
	if b.Min != geom.V(0.5, 0.5, 0.5) || b.Max != geom.V(1.5, 1.5, 1.5) {
		t.Fatalf("Box = %v", b)
	}
	if !o.Intersects(geom.NewBox(geom.V(1.4, 1.4, 1.4), geom.V(2, 2, 2))) {
		t.Error("Intersects = false for overlapping query")
	}
	if o.Intersects(geom.NewBox(geom.V(2, 2, 2), geom.V(3, 3, 3))) {
		t.Error("Intersects = true for disjoint query")
	}
}

func TestValidate(t *testing.T) {
	good := Object{Center: geom.V(0, 0, 0), HalfExtent: geom.V(1, 1, 1)}
	if err := good.Validate(); err != nil {
		t.Errorf("valid object rejected: %v", err)
	}
	bad := Object{Center: geom.V(math.NaN(), 0, 0)}
	if err := bad.Validate(); !errors.Is(err, ErrNonFiniteVec) {
		t.Errorf("NaN center: %v", err)
	}
	neg := Object{HalfExtent: geom.V(-1, 0, 0)}
	if err := neg.Validate(); err == nil {
		t.Error("negative half-extent accepted")
	}
}

func TestPagesFor(t *testing.T) {
	cases := []struct {
		n    int
		want int64
	}{
		{0, 0}, {-5, 0}, {1, 1}, {PageCapacity, 1}, {PageCapacity + 1, 2},
		{3 * PageCapacity, 3}, {3*PageCapacity + 1, 4},
	}
	for _, c := range cases {
		if got := PagesFor(c.n); got != c.want {
			t.Errorf("PagesFor(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestPageCapacityIsSane(t *testing.T) {
	// 4096-byte pages with 64-byte records and a 16-byte header hold 63.
	if PageCapacity != 63 {
		t.Fatalf("PageCapacity = %d, want 63", PageCapacity)
	}
}

// Property: record encode/decode round-trips for arbitrary bit patterns
// (including NaN payloads, which must survive byte-exactly as structs are
// compared by bits here via Float64bits).
func TestRecordRoundTripProperty(t *testing.T) {
	f := func(id uint64, ds uint32, cx, cy, cz, hx, hy, hz float64) bool {
		o := Object{
			ID: id, Dataset: DatasetID(ds),
			Center:     geom.V(cx, cy, cz),
			HalfExtent: geom.V(hx, hy, hz),
		}
		buf := make([]byte, RecordSize)
		EncodeRecord(buf, o)
		got := DecodeRecord(buf)
		same := func(a, b float64) bool {
			return math.Float64bits(a) == math.Float64bits(b)
		}
		return got.ID == o.ID && got.Dataset == o.Dataset &&
			same(got.Center.X, o.Center.X) && same(got.Center.Y, o.Center.Y) &&
			same(got.Center.Z, o.Center.Z) &&
			same(got.HalfExtent.X, o.HalfExtent.X) &&
			same(got.HalfExtent.Y, o.HalfExtent.Y) &&
			same(got.HalfExtent.Z, o.HalfExtent.Z)
	}
	cfg := &quick.Config{MaxCount: 1000, Rand: rand.New(rand.NewSource(4))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: any single-bit corruption of a page is detected — in a record,
// the zero tail, the magic, the crc32 field, and the record count, which a
// checksum over the records alone let decode as more or fewer records. Every
// bit of the header and the records is flipped, then random bits anywhere.
func TestChecksumDetectsBitFlipsProperty(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	objs := []Object{randObject(r), randObject(r), randObject(r)}
	page, err := EncodePage(objs)
	if err != nil {
		t.Fatal(err)
	}
	flip := func(bit int) {
		bad := append([]byte(nil), page...)
		bad[bit/8] ^= 1 << uint(bit%8)
		if got, err := DecodePage(bad); err == nil {
			t.Fatalf("bit flip at byte %d bit %d undetected: decoded %d records", bit/8, bit%8, len(got))
		}
	}
	for bit := range 8 * (pageHeaderSize + len(objs)*RecordSize) {
		flip(bit)
	}
	for trial := 0; trial < 200; trial++ {
		flip(r.Intn(8 * simdisk.PageSize))
	}
}

// The page codec allocates nothing of its own: AppendPageInto decodes
// straight into a dst with room (it used to decode into a temporary slice and
// copy), EncodePageInto writes into the caller's page.
func TestPageCodecDoesNotAllocate(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	objs := make([]Object, PageCapacity)
	for i := range objs {
		objs[i] = randObject(r)
	}
	page := bytes.Repeat([]byte{0xAB}, simdisk.PageSize)
	if n := testing.AllocsPerRun(100, func() {
		if err := EncodePageInto(page, objs); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("EncodePageInto: %v allocations per page, want 0", n)
	}
	dst := make([]Object, 0, PageCapacity)
	if n := testing.AllocsPerRun(100, func() {
		if _, err := AppendPageInto(dst, page); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("AppendPageInto into a dst with room: %v allocations per page, want 0", n)
	}
}

func BenchmarkAppendPageInto(b *testing.B) {
	page, err := EncodePage(make([]Object, PageCapacity))
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]Object, 0, PageCapacity)
	b.ReportAllocs()
	b.SetBytes(simdisk.PageSize)
	for b.Loop() {
		if _, err := AppendPageInto(dst, page); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodePageInto(b *testing.B) {
	objs := make([]Object, PageCapacity)
	page := make([]byte, simdisk.PageSize)
	b.ReportAllocs()
	b.SetBytes(simdisk.PageSize)
	for b.Loop() {
		if err := EncodePageInto(page, objs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppendIntersecting is the cell filter in host time per tested
// object, at three kept fractions: about 7 % (a cached query's cells), about
// 41 % (a merged cell read through its directory, where a branch on the
// verdict mispredicts most) and all of it. The cell's centers are uniform in
// the unit cube and each filter call takes the next of 64 windows of the
// fraction's volume, so that no run of verdicts repeats call after call.
func BenchmarkAppendIntersecting(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	cell := make([]Object, 4096)
	for i := range cell {
		cell[i] = Object{ID: uint64(i), Center: geom.V(r.Float64(), r.Float64(), r.Float64())}
	}
	for _, kept := range []float64{0.07, 0.41, 1} {
		side := math.Cbrt(kept)
		windows := make([]geom.Box, 64)
		for i := range windows {
			lo := geom.V(r.Float64(), r.Float64(), r.Float64()).Mul(1 - side)
			windows[i] = geom.Box{Min: lo, Max: lo.Add(geom.Splat(side))}
		}
		b.Run(fmt.Sprintf("kept=%.0f%%", 100*kept), func(b *testing.B) {
			dst := make([]Object, 0, len(cell))
			n, total := 0, 0
			b.ReportAllocs()
			for b.Loop() {
				dst = AppendIntersecting(dst[:0], cell, windows[n%len(windows)])
				n, total = n+1, total+len(dst)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n*len(cell)), "ns/object")
			b.ReportMetric(float64(total)/float64(n*len(cell)), "kept/object")
		})
	}
}
