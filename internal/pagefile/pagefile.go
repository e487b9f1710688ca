// Package pagefile layers object-record storage on top of the simulated
// disk: files of fixed-size pages holding object records, addressed by runs
// of consecutive pages.
//
// A Run is the unit partitions and merge files are stored in. Reading a run
// is a sequential scan on the device; a partition that was refined in place
// may span two runs (the reused parent pages plus appended overflow), which
// costs one extra seek — exactly the behaviour the paper describes for
// in-place refinement with appended pages.
package pagefile

import (
	"context"
	"fmt"
	"sync"

	"spaceodyssey/internal/object"
	"spaceodyssey/internal/simdisk"
)

// Run is a range of consecutive pages [Start, Start+Count) in one file.
type Run struct {
	Start int64
	Count int64
}

// Pages returns the total page count across runs.
func Pages(runs []Run) int64 {
	var n int64
	for _, r := range runs {
		n += r.Count
	}
	return n
}

// File stores object pages on simulated storage (a single device or a
// device array).
type File struct {
	dev simdisk.Storage
	id  simdisk.FileID
}

// Create allocates a new empty page file on dev with no placement affinity.
func Create(dev simdisk.Storage, name string) *File {
	return CreateInGroup(dev, name, "")
}

// CreateInGroup allocates a new empty page file with an affinity group hint:
// on a DeviceArray files of one group co-locate on one member device, and
// files of no group are dealt across members; on a single Device the hint is
// ignored.
func CreateInGroup(dev simdisk.Storage, name, group string) *File {
	return &File{dev: dev, id: dev.CreateFileInGroup(name, group)}
}

// Device returns the underlying storage.
func (f *File) Device() simdisk.Storage { return f.dev }

// ID returns the device file handle.
func (f *File) ID() simdisk.FileID { return f.id }

// NumPages returns the file length in pages.
func (f *File) NumPages() (int64, error) { return f.dev.NumPages(f.id) }

// Delete removes the file from the device.
func (f *File) Delete() error { return f.dev.DeleteFile(f.id) }

// AppendObjectsCtx writes objs to freshly appended pages and returns the run
// they occupy. An empty slice returns a zero-length run at EOF. The context
// is threaded to the device, so the write I/O is charged to the context's
// QoS scope. Callers that must not leave a partial append pass a
// non-cancelable context (simdisk.Detach keeps the scope).
func (f *File) AppendObjectsCtx(ctx context.Context, objs []object.Object) (Run, error) {
	end, err := f.dev.NumPages(f.id)
	if err != nil {
		return Run{}, err
	}
	run := Run{Start: end, Count: 0}
	page := pagePool.Get().(*[simdisk.PageSize]byte)
	defer pagePool.Put(page)
	for off := 0; off < len(objs); off += object.PageCapacity {
		hi := off + object.PageCapacity
		if hi > len(objs) {
			hi = len(objs)
		}
		if err := object.EncodePageInto(page[:], objs[off:hi]); err != nil {
			return Run{}, err
		}
		if _, err := f.dev.AppendPageCtx(ctx, f.id, page[:]); err != nil {
			return Run{}, err
		}
		run.Count++
	}
	return run, nil
}

// pagePool holds the one page a write call encodes into, page after page:
// the device copies what it is handed (see simdisk.Storage), so nothing
// page-sized is allocated beside the stored pages themselves.
var pagePool = sync.Pool{New: func() any { return new([simdisk.PageSize]byte) }}

// OverwriteObjectsCtx writes objs into the existing pages of run. The
// objects must fit: object.PagesFor(len(objs)) <= run.Count. Pages of the
// run beyond the data are rewritten empty so stale records cannot resurface.
// It returns the sub-run actually holding data. The context is threaded to
// the device for QoS charge attribution (see AppendObjectsCtx).
func (f *File) OverwriteObjectsCtx(ctx context.Context, run Run, objs []object.Object) (Run, error) {
	need := object.PagesFor(len(objs))
	if need > run.Count {
		return Run{}, fmt.Errorf("pagefile: %d objects need %d pages, run has %d",
			len(objs), need, run.Count)
	}
	page := pagePool.Get().(*[simdisk.PageSize]byte)
	defer pagePool.Put(page)
	for i := int64(0); i < run.Count; i++ {
		lo := int(i) * object.PageCapacity
		hi := lo + object.PageCapacity
		if lo > len(objs) {
			lo = len(objs)
		}
		if hi > len(objs) {
			hi = len(objs)
		}
		if err := object.EncodePageInto(page[:], objs[lo:hi]); err != nil {
			return Run{}, err
		}
		if err := f.dev.WritePageCtx(ctx, f.id, run.Start+i, page[:]); err != nil {
			return Run{}, err
		}
	}
	return Run{Start: run.Start, Count: need}, nil
}

// ReadRunIntoCtx appends the objects of run to dst. On cancellation the
// device aborts at the page boundary where the context expired, charging
// only the pages actually read. The run's byte buffer is recycled before
// returning, on success and error alike: decoded objects never alias it.
func (f *File) ReadRunIntoCtx(ctx context.Context, dst []object.Object, run Run) ([]object.Object, error) {
	if run.Count == 0 {
		return dst, nil
	}
	buf, err := f.dev.ReadRunCtx(ctx, f.id, run.Start, run.Count)
	if err != nil {
		return dst, err
	}
	defer simdisk.PutRunBuf(buf)
	for i := int64(0); i < run.Count; i++ {
		dst, err = object.AppendPageInto(dst, buf[i*simdisk.PageSize:(i+1)*simdisk.PageSize])
		if err != nil {
			return dst, fmt.Errorf("page %d of run %+v: %w", run.Start+i, run, err)
		}
	}
	return dst, nil
}

// ReadRunsIntoCtx appends the objects of every run, in order, to dst,
// aborting between and within runs when ctx is canceled. A caller that knows
// how many objects the runs hold sizes dst first (slices.Grow), so the read
// allocates at most once: nothing when dst is scratch from GetObjSlice with
// room to spare, one exact slice when dst is nil and the result is kept.
// Returns dst (possibly regrown) even on error.
func (f *File) ReadRunsIntoCtx(ctx context.Context, dst []object.Object, runs []Run) ([]object.Object, error) {
	var err error
	for _, r := range runs {
		dst, err = f.ReadRunIntoCtx(ctx, dst, r)
		if err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// objSlicePool recycles the object slices only one reader can see — the
// source of a refinement or a merge copy, a leaf or segment read nobody
// shares, a query's accumulating result: the reader decodes into the pooled
// slice, copies out what it keeps (objects are values) and puts it back.
var objSlicePool = sync.Pool{
	New: func() any {
		s := make([]object.Object, 0, 4*object.PageCapacity)
		return &s
	},
}

// MaxPooledObjs is the pool's retention bound, in objects: the content of
// the longest run simdisk pools a buffer for.
const MaxPooledObjs = simdisk.MaxPooledRunPages * object.PageCapacity

// GetObjSlice returns an empty object slice from the pool. A caller that
// grows it (append, slices.Grow) stores the result back through the pointer
// before PutObjSlice, so the pool keeps the larger one.
func GetObjSlice() *[]object.Object {
	return objSlicePool.Get().(*[]object.Object)
}

// PutObjSlice returns a slice obtained from GetObjSlice to the pool, unless
// it grew past the retention bound (a whole level-0 partition, a huge
// result), which is left to the collector. The caller must not retain s (or
// any alias of its backing array) afterwards.
func PutObjSlice(s *[]object.Object) {
	if poolableObjs(cap(*s)) {
		*s = (*s)[:0]
		objSlicePool.Put(s)
	}
}

// poolableObjs is the retention bound of PutObjSlice.
func poolableObjs(capObjs int) bool { return capObjs <= MaxPooledObjs }

// WriteIntoCtx distributes objs across the free capacity described by reuse
// (pages to overwrite, in order) and appends whatever does not fit. It
// appends the runs now holding the data to dst and returns the extended dst:
// a caller writing several partitions carves all their runs from one slice.
// Contiguous runs are merged only among those this call appends, so one
// partition's last run never swallows the next one's first. This is the
// primitive behind the paper's in-place partition refinement: children reuse
// the parent's pages first, overflow goes to end of file. The context is
// threaded to the device for QoS charge attribution (see AppendObjectsCtx).
func (f *File) WriteIntoCtx(ctx context.Context, dst, reuse []Run, objs []object.Object) ([]Run, error) {
	base := len(dst)
	remaining := objs
	for _, r := range reuse {
		if len(remaining) == 0 {
			break
		}
		fit := int(r.Count) * object.PageCapacity
		take := len(remaining)
		if take > fit {
			take = fit
		}
		used, err := f.OverwriteObjectsCtx(ctx, r, remaining[:take])
		if err != nil {
			return dst[:base], err
		}
		if used.Count > 0 {
			dst = appendRun(dst, base, used)
		}
		remaining = remaining[take:]
	}
	if len(remaining) > 0 {
		run, err := f.AppendObjectsCtx(ctx, remaining)
		if err != nil {
			return dst[:base], err
		}
		if run.Count > 0 {
			dst = appendRun(dst, base, run)
		}
	}
	return dst, nil
}

// appendRun adds r to runs, merging with the previous run when that run lies
// at or past base and is contiguous with r.
func appendRun(runs []Run, base int, r Run) []Run {
	if n := len(runs); n > base && runs[n-1].Start+runs[n-1].Count == r.Start {
		runs[n-1].Count += r.Count
		return runs
	}
	return append(runs, r)
}
