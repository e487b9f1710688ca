// Package object defines the spatial object record shared by every engine
// in the repository and its fixed-width binary page encoding.
//
// The paper's datasets model neuron morphologies as 3D surface meshes; each
// indexed element carries an identifier, a dataset id, and a spatial extent.
// Space-oriented partitioning (octree, grid) assigns objects by their center
// point and answers queries via the query-window extension, so the record
// stores center + half-extent explicitly.
//
// A record is the little-endian memory image of an Object, with its four pad
// bytes zero: EncodeRecord and DecodeRecord define it field by field, and the
// page codec moves a page's records as one copy of the objects' memory. The
// package therefore needs a little-endian host, and panics at init on any
// other.
package object

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
	"unsafe"

	"spaceodyssey/internal/geom"
	"spaceodyssey/internal/simdisk"
)

// DatasetID identifies one of the n datasets under exploration.
type DatasetID uint32

// Object is one spatial object: an axis-aligned box described by its center
// and half-extent, tagged with the dataset it belongs to.
type Object struct {
	ID         uint64
	Dataset    DatasetID
	Center     geom.Vec
	HalfExtent geom.Vec
}

// Box returns the object's axis-aligned bounding box.
func (o Object) Box() geom.Box {
	return geom.BoxFromCenter(o.Center, o.HalfExtent)
}

// Intersects reports whether the object's box intersects q: it is
// o.Box().Intersects(q) — closed-box semantics, and the same panic on a
// half-extent that is negative or not a number — compared axis by axis
// without materialising the box, because every cell a query reads is
// filtered through it object by object.
func (o Object) Intersects(q geom.Box) bool {
	c, h := o.Center, o.HalfExtent
	loX, hiX := c.X-h.X, c.X+h.X
	loY, hiY := c.Y-h.Y, c.Y+h.Y
	loZ, hiZ := c.Z-h.Z, c.Z+h.Z
	if !(loX <= hiX && loY <= hiY && loZ <= hiZ) {
		o.Box() // invalid: panics, with geom.NewBox's message
	}
	return loX <= q.Max.X && q.Min.X <= hiX &&
		loY <= q.Max.Y && q.Min.Y <= hiY &&
		loZ <= q.Max.Z && q.Min.Z <= hiZ
}

// filterBlock is how many objects AppendIntersecting tests between two
// growths of dst: dst is grown by a block before the block is filtered, so
// its spare capacity stays within one block of what the filter kept.
const filterBlock = 4 * PageCapacity

// b2i is 1 for true and 0 for false, which the compiler emits without a
// branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// AppendIntersecting appends the objects of cell whose box intersects q to
// dst and returns the extended slice: Intersects over a whole cell, and the
// one filter loop of the stack (the engine's result accumulator, the octree
// walk and the unindexed scan all read cells through it). The test is
// Intersects' own — closed boxes, and the same panic on an invalid
// half-extent — written out without a branch on its outcome: the six
// comparisons are one 0/1 verdict, every tested object is copied to the next
// free slot, and the slot advances by the verdict. A kept fraction between
// the extremes (the usual one) thus costs no mispredicted branches. The
// filter may therefore write past the length it returns, within dst's
// capacity, which it grows by at most one block of the cell beyond what it
// keeps. dst may be cell[:0]: the filter then runs in place, each write
// landing at or before the object it reads.
func AppendIntersecting(dst, cell []Object, q geom.Box) []Object {
	// The window's bounds in locals and no call in the loop keep them in
	// registers.
	qMinX, qMinY, qMinZ, qMaxX, qMaxY, qMaxZ := q.Min.X, q.Min.Y, q.Min.Z, q.Max.X, q.Max.Y, q.Max.Z
	for len(cell) > 0 {
		blk := cell[:min(len(cell), filterBlock)]
		cell = cell[len(blk):]
		n := len(dst)
		dst = slices.Grow(dst, len(blk))
		out := dst[n : n+len(blk)]
		i, j := 0, 0
		for ; i < len(blk); i++ {
			o := &blk[i]
			loX, hiX := o.Center.X-o.HalfExtent.X, o.Center.X+o.HalfExtent.X
			loY, hiY := o.Center.Y-o.HalfExtent.Y, o.Center.Y+o.HalfExtent.Y
			loZ, hiZ := o.Center.Z-o.HalfExtent.Z, o.Center.Z+o.HalfExtent.Z
			if b2i(loX <= hiX)&b2i(loY <= hiY)&b2i(loZ <= hiZ) == 0 {
				break // invalid: panics below
			}
			out[j] = *o
			j += b2i(loX <= qMaxX) & b2i(qMinX <= hiX) &
				b2i(loY <= qMaxY) & b2i(qMinY <= hiY) &
				b2i(loZ <= qMaxZ) & b2i(qMinZ <= hiZ)
		}
		if i < len(blk) {
			blk[i].Box() // panics, with geom.NewBox's message; no write reached blk[i]
		}
		dst = dst[:n+j]
	}
	return dst
}

// RecordSize is the fixed on-disk size of one object record:
// id(8) + dataset(4) + pad(4) + center(3*8) + halfExtent(3*8) = 64 bytes.
const RecordSize = 64

// recordPad is where a record's four pad bytes sit, between Dataset and
// Center.
const recordPad = 12

// init refuses a host or a layout on which an Object's memory is not its
// record, which recordBytes takes it to be.
func init() {
	var o Object
	if unsafe.Sizeof(o) != RecordSize || unsafe.Sizeof(o.Dataset) != 4 ||
		unsafe.Offsetof(o.Dataset) != 8 || unsafe.Offsetof(o.Center) != 16 ||
		unsafe.Offsetof(o.HalfExtent) != 40 || binary.NativeEndian.Uint16([]byte{1, 0}) != 1 {
		panic("object: the page codec needs a little-endian host and a 64-byte Object " +
			"with ID, Dataset (4 bytes), Center and HalfExtent at offsets 0, 8, 16 and 40")
	}
}

// recordBytes is the memory of objs as len(objs) records, the only view of
// an Object's memory the package takes: writing a record into it writes the
// object, pad bytes aside (Go says nothing of what padding holds).
func recordBytes(objs []Object) []byte {
	if len(objs) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&objs[0])), len(objs)*RecordSize)
}

// pageHeaderSize is the per-page header: magic(2) count(2) crc32(4) pad(8).
// The crc32 covers the page but its own four bytes (pageCRC).
const pageHeaderSize = 16

// PageCapacity is the number of object records per 4 KB page.
const PageCapacity = (simdisk.PageSize - pageHeaderSize) / RecordSize

// pageMagic marks a valid object page.
const pageMagic = 0x5D0D // "SpODyssey"

// Encoding/decoding errors.
var (
	ErrPageFull     = errors.New("object: too many records for one page")
	ErrBadMagic     = errors.New("object: page has bad magic (not an object page)")
	ErrBadChecksum  = errors.New("object: page checksum mismatch (corrupted page)")
	ErrBadCount     = errors.New("object: page record count out of range")
	ErrShortBuffer  = errors.New("object: buffer shorter than one page")
	ErrNonFiniteVec = errors.New("object: non-finite coordinate")
)

// Validate reports an error when the object's geometry is unusable.
func (o Object) Validate() error {
	if !o.Center.Finite() || !o.HalfExtent.Finite() {
		return fmt.Errorf("%w: object %d", ErrNonFiniteVec, o.ID)
	}
	if o.HalfExtent.X < 0 || o.HalfExtent.Y < 0 || o.HalfExtent.Z < 0 {
		return fmt.Errorf("object %d: negative half-extent %v", o.ID, o.HalfExtent)
	}
	return nil
}

// putVec writes v at buf[off:], returning the next offset.
func putVec(buf []byte, off int, v geom.Vec) int {
	binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(v.X))
	binary.LittleEndian.PutUint64(buf[off+8:], math.Float64bits(v.Y))
	binary.LittleEndian.PutUint64(buf[off+16:], math.Float64bits(v.Z))
	return off + 24
}

// getVec reads a Vec from buf[off:], returning it and the next offset.
func getVec(buf []byte, off int) (geom.Vec, int) {
	return geom.Vec{
		X: math.Float64frombits(binary.LittleEndian.Uint64(buf[off:])),
		Y: math.Float64frombits(binary.LittleEndian.Uint64(buf[off+8:])),
		Z: math.Float64frombits(binary.LittleEndian.Uint64(buf[off+16:])),
	}, off + 24
}

// EncodeRecord writes o into buf (at least RecordSize bytes).
func EncodeRecord(buf []byte, o Object) {
	buf = buf[:RecordSize] // one bounds check for the whole record
	binary.LittleEndian.PutUint64(buf[0:], o.ID)
	binary.LittleEndian.PutUint32(buf[8:], uint32(o.Dataset))
	binary.LittleEndian.PutUint32(buf[recordPad:], 0)
	off := putVec(buf, 16, o.Center)
	putVec(buf, off, o.HalfExtent)
}

// DecodeRecord reads an Object from buf (at least RecordSize bytes).
func DecodeRecord(buf []byte) Object {
	buf = buf[:RecordSize] // one bounds check for the whole record
	var o Object
	o.ID = binary.LittleEndian.Uint64(buf[0:])
	o.Dataset = DatasetID(binary.LittleEndian.Uint32(buf[8:]))
	var off int
	o.Center, off = getVec(buf, 16)
	o.HalfExtent, _ = getVec(buf, off)
	return o
}

// EncodePage encodes up to PageCapacity objects into a fresh PageSize
// buffer with header and checksum.
func EncodePage(objs []Object) ([]byte, error) {
	buf := make([]byte, simdisk.PageSize)
	if err := EncodePageInto(buf, objs); err != nil {
		return nil, err
	}
	return buf, nil
}

// EncodePageInto encodes up to PageCapacity objects into the first PageSize
// bytes of buf, which the caller owns and may hold anything: header, records,
// the unused tail and the header padding are all written, so the page is
// byte for byte what EncodePage returns. On error buf is untouched. The
// records are one copy of the objects' memory, each pad then cleared: the
// bytes EncodeRecord writes.
func EncodePageInto(buf []byte, objs []Object) error {
	if len(objs) > PageCapacity {
		return fmt.Errorf("%w: %d > %d", ErrPageFull, len(objs), PageCapacity)
	}
	if len(buf) < simdisk.PageSize {
		return ErrShortBuffer
	}
	buf = buf[:simdisk.PageSize]
	binary.LittleEndian.PutUint16(buf[0:], pageMagic)
	binary.LittleEndian.PutUint16(buf[2:], uint16(len(objs)))
	clear(buf[8:pageHeaderSize])
	end := pageHeaderSize + copy(buf[pageHeaderSize:], recordBytes(objs))
	for off := pageHeaderSize + recordPad; off < end; off += RecordSize {
		binary.LittleEndian.PutUint32(buf[off:], 0)
	}
	// A stale tail would make the page depend on buf's history, and store
	// as more than its records (simdisk keeps a page up to its last non-zero
	// block).
	clear(buf[pageHeaderSize+len(objs)*RecordSize:])
	binary.LittleEndian.PutUint32(buf[4:], pageCRC(buf))
	return nil
}

// pageCRC is the checksum of a page: everything but the crc32 field itself,
// so a flipped record count fails it as a flipped record does. Update on
// IEEETable keeps the hardware-accelerated path of ChecksumIEEE.
func pageCRC(page []byte) uint32 {
	crc := crc32.Update(0, crc32.IEEETable, page[0:4])
	return crc32.Update(crc, crc32.IEEETable, page[8:simdisk.PageSize])
}

// DecodePage decodes the objects stored in one page, verifying the header
// magic and page checksum.
func DecodePage(buf []byte) ([]Object, error) {
	return AppendPageInto(nil, buf)
}

// AppendPageInto validates one page — length, magic, record count and page
// checksum, on every call — and appends its records to dst, returning the
// extended slice. dst grows once, by the page's record count, and the records
// are copied straight into its memory; a rejected page returns dst
// unchanged. The result shares nothing with buf (objects are pointer-free
// values), so the caller may recycle the page as soon as the call returns.
func AppendPageInto(dst []Object, buf []byte) ([]Object, error) {
	if len(buf) < simdisk.PageSize {
		return dst, ErrShortBuffer
	}
	if binary.LittleEndian.Uint16(buf[0:]) != pageMagic {
		return dst, ErrBadMagic
	}
	count := int(binary.LittleEndian.Uint16(buf[2:]))
	if count > PageCapacity {
		return dst, fmt.Errorf("%w: %d", ErrBadCount, count)
	}
	wantCRC := binary.LittleEndian.Uint32(buf[4:])
	if pageCRC(buf) != wantCRC {
		return dst, ErrBadChecksum
	}
	n := len(dst)
	dst = slices.Grow(dst, count)[:n+count]
	copy(recordBytes(dst[n:]), buf[pageHeaderSize:])
	return dst, nil
}

// PagesFor returns the number of pages needed to store n records.
func PagesFor(n int) int64 {
	if n <= 0 {
		return 0
	}
	return int64((n + PageCapacity - 1) / PageCapacity)
}
