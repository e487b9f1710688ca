package core

import (
	"context"
	"sync"
	"sync/atomic"

	"spaceodyssey/internal/geom"
	"spaceodyssey/internal/object"
	"spaceodyssey/internal/octree"
	"spaceodyssey/internal/simdisk"
)

// SharingStats counts the engine layer of work sharing: the scan registry
// (Config.ShareScans) and the single-flight level-0 builds (always on). The
// device layer's counters (coalesced run reads, pages saved) live in
// simdisk.Stats; the Explorer combines both views.
type SharingStats struct {
	// AttachedScans is how many cell reads (partitions and merge segments)
	// were answered by attaching to another query's in-flight scan of the
	// same (dataset, cell) at the same layout epoch.
	AttachedScans int64
	// SharedBuilds is how many queries waited out another query's in-flight
	// level-0 build instead of herding on the tree's exclusive lock.
	SharedBuilds int64
	// Invalidations is how many times a layout publish (refinement, merge,
	// eviction) actually flushed in-flight entries from the scan registry.
	// Publishes that found the registry empty are not counted — the field
	// measures flushes of real in-flight work, not publish frequency.
	Invalidations int64
}

// scanKey identifies one cell: a tree partition or a merge segment of one
// dataset.
type scanKey struct {
	ds   object.DatasetID
	cell octree.Key
}

// scanEntry is one registered in-flight partition scan. The leader fills
// objs/err before closing done; attached readers treat objs as read-only
// (the engine only ever filters from it — objects are values).
type scanEntry struct {
	epoch int64
	done  chan struct{}
	objs  []object.Object
	err   error
}

// scanRegistry is the engine layer of scan sharing: the first query to read
// a (dataset, cell) within a layout epoch registers the scan; queries
// arriving while it is in flight attach to it instead of re-reading the
// cell, provided the layout epoch still matches. Entries live only for
// the duration of the read — this is single-flight, not a cache — and the
// registry is flushed on every layout publish, so a scan result can never
// be handed across a refinement or merge (the race-mode oracle contract).
//
// Safety: readers hold the engine's shared layout lock (and, for a tree
// partition, the dataset's shared tree lock) for the whole read, and every
// layout mutation takes one of those exclusively, so an in-flight entry's
// bytes cannot change under its waiters; the epoch check and publish-time
// flush are the cross-check that keeps attachment conservative.
type scanRegistry struct {
	mu       sync.Mutex
	inflight map[scanKey]*scanEntry

	attached      atomic.Int64
	invalidations atomic.Int64
}

func newScanRegistry() *scanRegistry {
	return &scanRegistry{inflight: make(map[scanKey]*scanEntry)}
}

// Invalidate flushes every in-flight entry. Leaders still complete and
// deliver to already-attached waiters (their reads happened under shared
// locks that excluded the publisher), but no new reader attaches to a
// pre-publish scan.
func (r *scanRegistry) Invalidate() {
	r.mu.Lock()
	flushed := len(r.inflight) > 0
	if flushed {
		r.inflight = make(map[scanKey]*scanEntry)
	}
	r.mu.Unlock()
	// Count only flushes that dropped real in-flight work: a publish over
	// an empty registry is a no-op, and counting it would make the
	// Invalidations ledger track publish frequency instead of flushes.
	if flushed {
		r.invalidations.Add(1)
	}
}

// readThrough is the single-flight read: attach to a matching in-flight
// scan, or lead one and fan its result out. read performs the actual cell
// I/O. epoch is the engine's layout epoch as of the read.
//
// When a leader's read fails (cancellation, an injected fault), its waiters
// do not each fall back to an independent read — that would be a thundering
// herd of N redundant scans, the exact failure mode this registry exists to
// prevent. Instead every waiter re-enters the single-flight path: a failed
// leader deregisters its entry before publishing, so the first waiter back
// through the registry lock becomes the one new leader and the rest attach
// to it. failed remembers the entry whose error we just observed: if it is
// somehow still registered (it cannot re-succeed), it is displaced rather
// than re-attached, guaranteeing progress.
func (r *scanRegistry) readThrough(ctx context.Context, key scanKey, epoch int64,
	read func(context.Context) ([]object.Object, error)) ([]object.Object, error) {
	var failed *scanEntry
	for {
		r.mu.Lock()
		if e, ok := r.inflight[key]; ok && e.epoch == epoch && e != failed {
			r.mu.Unlock()
			if err := simdisk.WaitDone(ctx, e.done); err != nil {
				return nil, err
			}
			if e.err != nil {
				// The leader failed; its outcome is not ours. Re-enter the
				// single-flight path: exactly one waiter retries the read.
				failed = e
				continue
			}
			r.attached.Add(1)
			return e.objs, nil
		} else if ok && e.epoch != epoch {
			// An entry from another epoch is still in flight (defensive:
			// the lock discipline should make this unobservable). Do not
			// attach and do not displace it — just read directly.
			r.mu.Unlock()
			return read(ctx)
		}
		// No attachable entry (or only the failed one we just waited out,
		// which is displaced): lead the read ourselves.
		e := &scanEntry{epoch: epoch, done: make(chan struct{})}
		r.inflight[key] = e
		r.mu.Unlock()

		e.objs, e.err = read(ctx)

		// Deregister before publishing: a waiter that observes the error
		// must find the entry gone (or replaced) when it loops back, so the
		// retry single-flights instead of re-attaching to a dead scan.
		r.mu.Lock()
		if r.inflight[key] == e {
			delete(r.inflight, key)
		}
		r.mu.Unlock()
		close(e.done)
		return e.objs, e.err
	}
}

// cellRead performs the device read of one cell: a tree partition or a merge
// segment.
type cellRead = func(context.Context) ([]object.Object, error)

// readCell is the one cell read of the serving stack, shared by tree
// partitions (through octree.Tree.ShareReader) and merge segments, which live
// in one (dataset, cell) key space — either is the full content of its cell:
// the result cache first (an exact hit within the layout epoch costs
// nothing), then the in-flight scan registry (sharing on), then the device
// read itself, whose completed result is retained in the cache for queries
// that arrive after the scan finished. box is the cell's region, which the
// cache keys containment answering on. Callers hold the shared layout lock —
// and, for a partition, the dataset's shared tree lock — while publishers
// take them exclusively, so the cell's bytes cannot change under the read or
// its attached waiters. The returned slice may be shared with concurrent
// queries and must be treated as read-only.
func (o *Odyssey) readCell(ctx context.Context, ds object.DatasetID, cell octree.Key, box geom.Box, read cellRead) ([]object.Object, error) {
	// The epoch is loaded before the read: a layout publish racing the read
	// flushes cache and registry and leaves the later insert dead on arrival
	// (its stored epoch can never match a future lookup) — conservative,
	// never wrong.
	epoch := o.layoutEpoch.Load()
	if o.rcache != nil {
		if objs, ok := o.rcache.Lookup(ds, cell, epoch); ok {
			return objs, nil
		}
	}
	// Only the goroutine performing the device read marks its own query's
	// cache scope; queries attached to this scan stay clean (they charged no
	// device read).
	device := func(ctx context.Context) ([]object.Object, error) {
		missCacheScope(ctx)
		return read(ctx)
	}
	var objs []object.Object
	var err error
	if o.scans != nil {
		objs, err = o.scans.readThrough(ctx, scanKey{ds: ds, cell: cell}, epoch, device)
	} else {
		objs, err = device(ctx)
	}
	if err == nil && o.rcache != nil {
		o.rcache.Insert(ds, cell, epoch, box, objs)
	}
	return objs, err
}

// bumpLayoutEpoch publishes a layout change: the global epoch advances, the
// scan registry (when sharing is on) is flushed so no new reader attaches
// to a pre-publish scan, and the result cache (when caching is on) is
// flushed so no post-publish query is answered from a pre-publish scan.
func (o *Odyssey) bumpLayoutEpoch() {
	o.layoutEpoch.Add(1)
	if o.scans != nil {
		o.scans.Invalidate()
	}
	if o.rcache != nil {
		o.rcache.Invalidate()
	}
}
