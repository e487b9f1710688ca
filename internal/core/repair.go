package core

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"spaceodyssey/internal/object"
	"spaceodyssey/internal/octree"
	"spaceodyssey/internal/simdisk"
)

// Derived data is disposable: every tree partition and merge file is built
// from the raw files on demand (§3), so a read of one that can never succeed
// is answered by rebuilding it, not by failing. repair is the one place that
// does it; the query path, the inline merge step and both maintenance tasks
// call it on a failed read and then carry on.

// mergeReadError is a failed read of a merge file's pages; combo names the
// file that holds them (a shared segment's owner).
type mergeReadError struct {
	combo ComboKey
	err   error
}

func (e *mergeReadError) Error() string { return fmt.Sprintf("merge file %s: %v", e.combo, e.err) }

func (e *mergeReadError) Unwrap() error { return e.err }

// repairUnit is one unit of derived data a caller repaired: a tree partition
// or a merge file.
type repairUnit struct {
	part  *octree.Partition
	combo ComboKey
}

// repair answers a failed read of derived data — err is the read's error —
// and returns nil when the caller may read again:
//   - a tree partition is re-derived from its raw file under its dataset's
//     write lock (octree.Tree.Rederive), charged to ctx's scope;
//   - a merge file is evicted, with a budget eviction's bookkeeping: the
//     combination forgotten (combo.forget) and the layout epoch bumped. Its
//     cells are answered from the trees until the combination earns its
//     merge again.
//
// Only a permanent fault or a checksum failure is repaired, and a unit once
// per caller (done, which repair extends): a unit that fails again after its
// repair, any other error, and above all a fault on a raw file — nothing can
// re-derive raw data — are returned for the caller to surface, as is an error
// of the repair itself. The caller holds no engine lock.
func (o *Odyssey) repair(ctx context.Context, err error, done []repairUnit) ([]repairUnit, error) {
	if !errors.Is(err, simdisk.ErrPermanent) && !errors.Is(err, object.ErrBadChecksum) {
		return done, err
	}
	var pe *octree.ReadError
	var me *mergeReadError
	var u repairUnit
	switch {
	case errors.As(err, &pe):
		u.part = pe.Partition
	case errors.As(err, &me):
		u.combo = me.combo
	default:
		return done, err
	}
	if slices.Contains(done, u) {
		return done, err
	}
	done = append(done, u)
	if pe != nil {
		return done, o.rederive(ctx, pe)
	}
	return done, o.dropMergeFile(me.combo)
}

// rederive re-derives the partition a failed read names. Its scan and
// writes are booked as level-0 work: an in-situ pass over the raw file.
func (o *Odyssey) rederive(ctx context.Context, e *octree.ReadError) error {
	o.mu.RLock()
	tree, lk := o.trees[e.Dataset], o.treeMu[e.Dataset]
	lk.Lock()
	clock := simdisk.PhaseClock(ctx, o.dev)
	t0 := clock.Now()
	rebuilt, err := tree.Rederive(ctx, e)
	dt := clock.Now() - t0
	lk.Unlock()
	o.mu.RUnlock()
	o.statsMu.Lock()
	o.phases.LevelZeroBuild += dt
	if rebuilt {
		o.partsRepaired++
	}
	o.statsMu.Unlock()
	return err
}

// dropMergeFile evicts the merge file of the combination key, unless a
// racing caller already has.
func (o *Odyssey) dropMergeFile(key ComboKey) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	mf := o.merger.file(key)
	if mf == nil {
		return nil
	}
	if err := o.merger.evict(mf); err != nil {
		return err
	}
	o.bumpLayoutEpoch()
	o.statsMu.Lock()
	mf.combo.forget()
	o.mergesRepaired++
	o.statsMu.Unlock()
	return nil
}
