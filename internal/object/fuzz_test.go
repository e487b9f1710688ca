package object

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"spaceodyssey/internal/geom"
	"spaceodyssey/internal/simdisk"
)

// sameRecords compares object slices by their encoded records, so NaN
// coordinates a fuzzed page may carry compare equal to themselves.
func sameRecords(a, b []Object) bool {
	if len(a) != len(b) {
		return false
	}
	var ra, rb [RecordSize]byte
	for i := range a {
		EncodeRecord(ra[:], a[i])
		EncodeRecord(rb[:], b[i])
		if ra != rb {
			return false
		}
	}
	return true
}

// FuzzDecodePage checks that arbitrary page bytes never panic the decoder,
// that accepted pages re-encode consistently, and the buffer-reuse contract
// of AppendPageInto: decoding into a non-empty dst — with room to decode in
// place, and without — returns dst's prefix followed by exactly what
// DecodePage returns, and a rejected page leaves dst as it was.
func FuzzDecodePage(f *testing.F) {
	// Seed corpus: a valid page, an empty page, truncated and corrupted
	// variants.
	valid, err := EncodePage([]Object{{ID: 1, Dataset: 2}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	empty, err := EncodePage(nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(empty)
	f.Add([]byte{})
	f.Add(make([]byte, simdisk.PageSize))
	corrupted := append([]byte(nil), valid...)
	corrupted[100] ^= 0xFF
	f.Add(corrupted)

	prefix := []Object{{ID: 9, Dataset: 1, Center: geom.V(1, 2, 3)}, {ID: 10, HalfExtent: geom.V(4, 5, 6)}}
	f.Fuzz(func(t *testing.T, data []byte) {
		objs, err := DecodePage(data)
		for _, spare := range []int{0, PageCapacity} {
			dst := make([]Object, len(prefix), len(prefix)+spare)
			copy(dst, prefix)
			got, aerr := AppendPageInto(dst, data)
			if (aerr == nil) != (err == nil) {
				t.Fatalf("AppendPageInto: %v, DecodePage: %v", aerr, err)
			}
			if err != nil {
				if !sameRecords(got, prefix) || cap(got) != cap(dst) ||
					!sameRecords(got[:cap(got)][len(prefix):], make([]Object, spare)) {
					t.Fatalf("rejected page (%v) changed dst: %v", err, got[:cap(got)])
				}
				continue
			}
			if want := append(prefix[:len(prefix):len(prefix)], objs...); !sameRecords(got, want) {
				t.Fatalf("spare %d: decoded %v after the prefix, want %v", spare, got, want)
			}
		}
		if err != nil {
			return // rejected input is fine; panics are not
		}
		// Accepted pages must round-trip.
		page, err := EncodePage(objs)
		if err != nil {
			t.Fatalf("decoded page failed to re-encode: %v", err)
		}
		again, err := DecodePage(page)
		if err != nil {
			t.Fatalf("re-encoded page failed to decode: %v", err)
		}
		if len(again) != len(objs) {
			t.Fatalf("round trip changed count: %d vs %d", len(again), len(objs))
		}
	})
}

// FuzzEncodePageInto checks the other half of buffer reuse: encoding into a
// page that holds arbitrary bytes must equal EncodePage byte for byte — a
// stale tail would sit under the checksum and resurface as records after a
// count bump, stale header padding would make equal pages differ — and a
// refused encode must leave the page alone.
func FuzzEncodePageInto(f *testing.F) {
	f.Add([]byte{0xFF}, make([]byte, 3*RecordSize))
	f.Add([]byte{}, []byte{})
	f.Add([]byte{0x5D, 0x0D, 1, 2, 3}, make([]byte, PageCapacity*RecordSize))
	f.Add([]byte{7}, make([]byte, (PageCapacity+1)*RecordSize))
	f.Fuzz(func(t *testing.T, fill, recs []byte) {
		objs := make([]Object, min(len(recs)/RecordSize, PageCapacity+1))
		for i := range objs {
			objs[i] = DecodeRecord(recs[i*RecordSize:])
		}
		buf := make([]byte, simdisk.PageSize)
		for i := range buf {
			if len(fill) > 0 {
				buf[i] = fill[i%len(fill)]
			}
		}
		before := append([]byte(nil), buf...)
		want, werr := EncodePage(objs)
		err := EncodePageInto(buf, objs)
		if (err == nil) != (werr == nil) {
			t.Fatalf("EncodePageInto: %v, EncodePage: %v", err, werr)
		}
		if err != nil {
			want = before
		}
		if !bytes.Equal(buf, want) {
			t.Fatalf("%d objects into a dirty page: differs from EncodePage (err %v)", len(objs), err)
		}
	})
}

// FuzzPageCodecMatchesRecordCodec holds the page codec, which moves a page's
// records as one copy of the objects' memory, to the field-by-field record
// codec that defines the format, on arbitrary records — NaNs, negative zeros
// and any pad bytes: EncodePageInto writes the page built from EncodeRecord,
// the header and pageCRC, and AppendPageInto returns DecodeRecord of each
// record. A page whose records carry non-zero pad bytes decodes to the same
// objects, and re-encoding them clears the pads again.
func FuzzPageCodecMatchesRecordCodec(f *testing.F) {
	rec := make([]byte, RecordSize)
	EncodeRecord(rec, Object{ID: 1 << 60, Dataset: 3, Center: geom.V(math.NaN(), math.Copysign(0, -1), 1),
		HalfExtent: geom.V(math.Inf(1), 0.25, math.Copysign(0, -1))})
	binary.LittleEndian.PutUint32(rec[recordPad:], 0xDEADBEEF)
	f.Add(bytes.Repeat(rec, 3))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, PageCapacity*RecordSize))
	f.Fuzz(func(t *testing.T, recs []byte) {
		n := min(len(recs)/RecordSize, PageCapacity)
		recs = recs[:n*RecordSize]
		objs := make([]Object, n)
		for i := range objs {
			objs[i] = DecodeRecord(recs[i*RecordSize:])
		}
		ref := make([]byte, simdisk.PageSize)
		binary.LittleEndian.PutUint16(ref[0:], pageMagic)
		binary.LittleEndian.PutUint16(ref[2:], uint16(n))
		for i, o := range objs {
			EncodeRecord(ref[pageHeaderSize+i*RecordSize:], o)
		}
		binary.LittleEndian.PutUint32(ref[4:], pageCRC(ref))

		page := bytes.Repeat([]byte{0xA5}, simdisk.PageSize)
		if err := EncodePageInto(page, objs); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(page, ref) {
			t.Fatalf("%d records: EncodePageInto differs from the page EncodeRecord builds", n)
		}
		got, err := AppendPageInto(nil, ref)
		if err != nil {
			t.Fatal(err)
		}
		if !sameRecords(got, objs) {
			t.Fatalf("%d records: AppendPageInto decoded %v, DecodeRecord %v", n, got, objs)
		}

		dirty := slices.Clone(ref)
		copy(dirty[pageHeaderSize:], recs)
		binary.LittleEndian.PutUint32(dirty[4:], pageCRC(dirty))
		if got, err = AppendPageInto(got[:0], dirty); err != nil {
			t.Fatal(err)
		}
		if !sameRecords(got, objs) {
			t.Fatalf("%d records with their pad bytes: decoded %v, DecodeRecord %v", n, got, objs)
		}
		if err := EncodePageInto(page, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(page, ref) {
			t.Fatalf("%d records decoded with their pad bytes: re-encoding differs from the reference page", n)
		}
	})
}

// FuzzDecodeRecord checks the fixed-width record decoder tolerates any
// 64-byte input.
func FuzzDecodeRecord(f *testing.F) {
	buf := make([]byte, RecordSize)
	EncodeRecord(buf, Object{ID: 42, Dataset: 7})
	f.Add(buf)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < RecordSize {
			return
		}
		o := DecodeRecord(data[:RecordSize])
		out := make([]byte, RecordSize)
		EncodeRecord(out, o)
		// Re-decoding the re-encoding must be stable.
		if got := DecodeRecord(out); got.ID != o.ID || got.Dataset != o.Dataset {
			t.Fatal("record round trip unstable")
		}
	})
}

// outcome runs a predicate and reports its verdict, or that it panicked.
func outcome(f func() bool) (verdict, panicked bool) {
	defer func() {
		if recover() != nil {
			verdict, panicked = false, true
		}
	}()
	return f(), false
}

// FuzzObjectIntersects pins the axis-by-axis Object.Intersects to the
// definition it inlines, o.Box().Intersects(q), on FuzzBoxIntersect's corpus
// shape — touching faces, zero extents — and on what that fuzzer filters
// out: whenever building the box panics (a half-extent negative or not a
// number, a center not a number), so does Intersects.
func FuzzObjectIntersects(f *testing.F) {
	f.Add(0.5, 0.5, 0.5, 0.1, 0.1, 0.1, 0.5, 0.5, 0.5, 0.2, 0.2, 0.2)
	f.Add(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.5, 0.5, 0.5) // point object
	f.Add(-3.0, 2.0, 7.5, 1.0, 0.25, 2.0, 4.0, 2.0, -1.0, 8.0, 0.5, 10.0)
	f.Add(0.25, 0.5, 0.5, 0.25, 0.1, 0.1, 0.75, 0.5, 0.5, 0.25, 0.1, 0.1) // faces touch at x = 0.5
	f.Add(0.5, 0.5, 0.5, 0.0, 0.0, 0.0, 0.5, 0.5, 0.5, 0.0, 0.0, 0.0)     // two equal points
	f.Add(0.5, 0.5, 0.5, -0.1, 0.1, 0.1, 0.5, 0.5, 0.5, 0.2, 0.2, 0.2)    // negative half-extent
	f.Add(0.5, 0.5, 0.5, 0.1, math.NaN(), 0.1, 0.5, 0.5, 0.5, 0.2, 0.2, 0.2)
	f.Add(math.Inf(1), 0.5, 0.5, math.Inf(1), 0.1, 0.1, 0.5, 0.5, 0.5, 0.2, 0.2, 0.2)
	f.Fuzz(func(t *testing.T,
		ocx, ocy, ocz, ohx, ohy, ohz float64,
		qcx, qcy, qcz, qhx, qhy, qhz float64) {
		o := Object{Center: geom.V(ocx, ocy, ocz), HalfExtent: geom.V(ohx, ohy, ohz)}
		// The query is any box value, valid or not: Intersects only compares
		// against its corners.
		q := geom.Box{Min: geom.V(qcx-qhx, qcy-qhy, qcz-qhz), Max: geom.V(qcx+qhx, qcy+qhy, qcz+qhz)}
		want, wantPanic := outcome(func() bool { return o.Box().Intersects(q) })
		got, gotPanic := outcome(func() bool { return o.Intersects(q) })
		if got != want || gotPanic != wantPanic {
			t.Fatalf("%+v against %v: Intersects = %v (panicked %v), Box().Intersects = %v (panicked %v)",
				o, q, got, gotPanic, want, wantPanic)
		}
		// The cell filter writes the same test out once more.
		kept, keptPanic := outcome(func() bool { return len(AppendIntersecting(nil, []Object{o}, q)) == 1 })
		if kept != want || keptPanic != wantPanic {
			t.Fatalf("%+v against %v: AppendIntersecting kept %v (panicked %v), Box().Intersects = %v (panicked %v)",
				o, q, kept, keptPanic, want, wantPanic)
		}
	})
}

// TestAppendIntersectingMatchesIntersects: over generated cells — clustered
// around the query so that faces touch, with point objects and objects far
// away, from empty to several filter blocks long, with runs of kept objects
// across block edges — the cell filter keeps exactly the objects Intersects
// accepts one by one, in order, after a dst prefix it leaves untouched, and
// grows dst by at most one block beyond what it keeps; filtering in place
// (dst = cell[:0]) gives the same in the cell's own array.
func TestAppendIntersectingMatchesIntersects(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	grid := func() float64 { return float64(r.Intn(9)) / 8 } // coordinates collide
	lengths := []int{0, 1, filterBlock - 1, filterBlock, filterBlock + 1, 2*filterBlock + 3}
	for trial := 0; trial < 300; trial++ {
		q := geom.Box{Min: geom.V(grid(), grid(), grid())}
		q.Max = q.Min.Add(geom.V(grid(), grid(), grid()))
		n := r.Intn(3*filterBlock + 2)
		if trial < len(lengths) {
			n = lengths[trial]
		}
		cell := make([]Object, n)
		for i := range cell {
			cell[i] = Object{
				ID:         uint64(i),
				Center:     geom.V(grid()*2-0.5, grid()*2-0.5, grid()*2-0.5),
				HalfExtent: geom.V(grid()/2, grid()/2, grid()/2),
			}
		}
		// A run of points on q's corner, kept, across each block edge.
		for edge := filterBlock; edge < n; edge += filterBlock {
			for i := edge - 3; i < min(edge+3, n); i++ {
				cell[i].Center, cell[i].HalfExtent = q.Min, geom.Vec{}
			}
		}
		prefix := []Object{{ID: 1 << 40}, {ID: 1<<40 + 1}}
		want := slices.Clone(prefix)
		for _, o := range cell {
			if o.Intersects(q) {
				want = append(want, o)
			}
		}
		for _, room := range []int{0, n} {
			dst := append(make([]Object, 0, len(prefix)+room), prefix...)
			got := AppendIntersecting(dst, cell, q)
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d: kept %d objects of %d after a %d-object prefix, not the %d Intersects keeps, in order, after it",
					trial, len(got)-len(prefix), n, len(prefix), len(want)-len(prefix))
			}
			if !slices.Equal(dst, prefix) {
				t.Fatalf("trial %d: the filter changed dst's prefix to %v", trial, dst)
			}
			// A block is what the filter asks room for beyond what it kept;
			// append's growth at most doubles what it is asked for.
			if bound := cap(slices.Grow([]Object(nil), 2*(len(got)+filterBlock))); cap(got) > max(cap(dst), bound) {
				t.Fatalf("trial %d: cap(dst) grew from %d to %d keeping %d objects of %d, over the bound %d",
					trial, cap(dst), cap(got), len(got), n, bound)
			}
			if room == n && len(got) > 0 && &got[0] != &dst[0] {
				t.Fatalf("trial %d: the filter reallocated a dst with room for the whole cell", trial)
			}
		}
		got := AppendIntersecting(cell[:0], cell, q)
		if !slices.Equal(got, want[len(prefix):]) {
			t.Fatalf("trial %d: in place kept %d objects, Intersects keeps %d", trial, len(got), len(want)-len(prefix))
		}
		if cap(got) != cap(cell) {
			t.Fatalf("trial %d: in place, the filter reallocated the cell", trial)
		}
	}
}

// TestIntersectsRejectsInvalidExtent: the filter every cell read goes through
// still refuses an object whose box cannot be built.
func TestIntersectsRejectsInvalidExtent(t *testing.T) {
	q := geom.UnitBox()
	for _, h := range []geom.Vec{geom.V(-1e-9, 0, 0), geom.V(0, 0, -1), geom.V(0, math.NaN(), 0)} {
		o := Object{Center: geom.V(0.5, 0.5, 0.5), HalfExtent: h}
		if _, panicked := outcome(func() bool { return o.Intersects(q) }); !panicked {
			t.Errorf("half-extent %v: Intersects did not panic", h)
		}
		// Nor does the cell filter skip it, wherever in the cell it sits.
		ok := Object{Center: geom.V(0.5, 0.5, 0.5)}
		if _, panicked := outcome(func() bool { return AppendIntersecting(nil, []Object{ok, ok, o, ok}, q) != nil }); !panicked {
			t.Errorf("half-extent %v: AppendIntersecting did not panic", h)
		}
	}
}
