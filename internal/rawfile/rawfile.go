// Package rawfile implements the unindexed, in-situ dataset files every
// approach in the paper starts from. A raw file stores object records in
// acquisition order, packed into pages with no spatial organization; the
// only access path is a full sequential scan, which is exactly what Space
// Odyssey's first query and every index build pay for (NoDB-style in-situ
// processing).
package rawfile

import (
	"context"
	"errors"
	"fmt"

	"spaceodyssey/internal/geom"
	"spaceodyssey/internal/object"
	"spaceodyssey/internal/pagefile"
	"spaceodyssey/internal/simdisk"
)

// ErrClosed is returned for operations on a deleted raw file.
var ErrClosed = errors.New("rawfile: file deleted")

// GroupName is the placement affinity group of a dataset's files: every
// file derived from the dataset (raw, octree) created under this group
// co-locates on one member of a device array.
func GroupName(dataset object.DatasetID) string {
	return fmt.Sprintf("ds%d", dataset)
}

// Raw is one raw dataset file on the simulated disk.
type Raw struct {
	name    string
	dataset object.DatasetID
	file    *pagefile.File
	run     pagefile.Run
	count   int
	deleted bool
}

// Write materializes objs as a raw file on dev. The write is charged to the
// device clock; callers that model pre-existing data (the usual case — the
// paper's datasets already sit on disk) should ResetClock afterwards. On a
// device array the file is placed under the dataset's affinity group, so the
// raw file and the octree built over it land on the same member device.
func Write(dev simdisk.Storage, name string, dataset object.DatasetID, objs []object.Object) (*Raw, error) {
	// Validate before the first append: a rejected dataset must leave no
	// file on the device and no write time on its clock.
	if err := validate(objs); err != nil {
		return nil, fmt.Errorf("rawfile %q: %w", name, err)
	}
	f := pagefile.CreateInGroup(dev, name, GroupName(dataset))
	run, err := f.AppendObjectsCtx(context.Background(), objs)
	if err != nil {
		return nil, fmt.Errorf("rawfile %q: %w", name, err)
	}
	return &Raw{
		name:    name,
		dataset: dataset,
		file:    f,
		run:     run,
		count:   len(objs),
	}, nil
}

// validate checks objs in one pass, building no box. An object is valid when
// its half-extents are >= 0 (false for NaN) and its six coordinates are
// finite, which is when every x-x is 0 (Inf-Inf and NaN-x are NaN). Only an
// object failing that test calls Validate, so the error is Validate's for
// the first invalid object.
func validate(objs []object.Object) error {
	for i := range objs {
		c, h := objs[i].Center, objs[i].HalfExtent
		if !(h.X >= 0 && h.Y >= 0 && h.Z >= 0 &&
			(c.X-c.X)+(c.Y-c.Y)+(c.Z-c.Z)+(h.X-h.X)+(h.Y-h.Y)+(h.Z-h.Z) == 0) {
			if err := objs[i].Validate(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Name returns the file's name.
func (r *Raw) Name() string { return r.name }

// Dataset returns the dataset id the file stores.
func (r *Raw) Dataset() object.DatasetID { return r.dataset }

// NumObjects returns the number of records in the file.
func (r *Raw) NumObjects() int { return r.count }

// NumPages returns the file length in pages.
func (r *Raw) NumPages() int64 { return r.run.Count }

// scanChunkPages is the run size in-situ scans read at a time: large enough
// that a chunk is a genuine sequential run, small enough that huge files
// never need one giant buffer (128 pages = 512 KB). It is this package's
// decision, not the pool's: a chunk is one run and one emulation sleep, so
// its boundaries are part of the simulated clock (TestPaperClockPinned).
const scanChunkPages = 128

// The chunk buffer is recycled from chunk to chunk only while the run pool
// retains buffers this large; retuning the pool below it fails the build
// here instead of silently turning every chunk back into garbage.
const _ = uint(simdisk.MaxPooledRunPages - scanChunkPages)

// readChunks is the file's one access path: a full sequential read in runs of
// scanChunkPages, each handed to fn (with the index of its first page) and
// recycled when fn returns. The context is checked at every page boundary
// (inside ReadRunCtx), so an abandoned in-situ scan stops charging simulated
// I/O where it was abandoned. The in-situ first-touch scan is the most
// expensive single operation in the system — exactly the one an interactive
// caller most wants to walk away from.
//
// Reading run-sized chunks (not single pages) means real-time emulation
// sleeps once per chunk and OS sleep granularity does not inflate the scan.
// The simulated charges are identical to a page-by-page scan: same pages,
// same order, same head.
func (r *Raw) readChunks(ctx context.Context, fn func(buf []byte, first int64) error) error {
	if r.deleted {
		return ErrClosed
	}
	dev := r.file.Device()
	id := r.file.ID()
	end := r.run.Start + r.run.Count
	for p := r.run.Start; p < end; {
		n := scanChunkPages - (p-r.run.Start)%scanChunkPages
		if p+n > end {
			n = end - p
		}
		buf, err := dev.ReadRunCtx(ctx, id, p, n)
		if err != nil {
			return err
		}
		err = fn(buf, p)
		simdisk.PutRunBuf(buf)
		if err != nil {
			return err
		}
		p += n
	}
	return nil
}

// appendPages decodes the pages in buf — a chunk, or one page of it — one
// after another onto dst; first is the file index of the first of them.
func (r *Raw) appendPages(dst []object.Object, buf []byte, first int64) ([]object.Object, error) {
	for off := 0; off < len(buf); off += simdisk.PageSize {
		var err error
		dst, err = object.AppendPageInto(dst, buf[off:off+simdisk.PageSize])
		if err != nil {
			return dst, fmt.Errorf("rawfile %q page %d: %w", r.name, first+int64(off/simdisk.PageSize), err)
		}
	}
	return dst, nil
}

// AppendAllCtx reads every record, in storage order, onto dst and returns
// the extended slice: the pages decode straight into it, so a caller that
// sized dst (NumObjects) pays no copy and no allocation per record — this is
// the level-0 build's scan. On error the records decoded so far are returned
// with it.
func (r *Raw) AppendAllCtx(ctx context.Context, dst []object.Object) ([]object.Object, error) {
	err := r.readChunks(ctx, func(buf []byte, first int64) (err error) {
		dst, err = r.appendPages(dst, buf, first)
		return err
	})
	return dst, err
}

// scanPages performs a full scan handing fn the records of one page at a
// time, in storage order. Every page decodes into the same slice, which is
// pagefile's pooled scratch (a scan allocates nothing per call); fn must not
// retain it.
func (r *Raw) scanPages(ctx context.Context, fn func(page []object.Object) error) error {
	sp := pagefile.GetObjSlice()
	defer pagefile.PutObjSlice(sp)
	return r.readChunks(ctx, func(buf []byte, first int64) error {
		for off := 0; off < len(buf); off += simdisk.PageSize {
			page, err := r.appendPages((*sp)[:0], buf[off:off+simdisk.PageSize], first+int64(off/simdisk.PageSize))
			if err != nil {
				return err
			}
			*sp = page
			if err := fn(page); err != nil {
				return err
			}
		}
		return nil
	})
}

// ScanCtx performs a full sequential in-situ scan (see readChunks), invoking
// fn for every record in storage order. fn returning an error aborts the
// scan.
func (r *Raw) ScanCtx(ctx context.Context, fn func(object.Object) error) error {
	return r.scanPages(ctx, func(page []object.Object) error {
		for i := range page {
			if err := fn(page[i]); err != nil {
				return err
			}
		}
		return nil
	})
}

// ScanRange performs a full scan and reports only records intersecting q —
// the query path of a completely unindexed dataset.
func (r *Raw) ScanRange(ctx context.Context, q geom.Box, fn func(object.Object) error) error {
	return r.scanPages(ctx, func(page []object.Object) error {
		hits := object.AppendIntersecting(page[:0], page, q) // in place
		for i := range hits {
			if err := fn(hits[i]); err != nil {
				return err
			}
		}
		return nil
	})
}

// Delete removes the file from the device.
func (r *Raw) Delete() error {
	if r.deleted {
		return ErrClosed
	}
	r.deleted = true
	return r.file.Delete()
}
