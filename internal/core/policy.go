package core

import (
	"context"
	"fmt"

	"spaceodyssey/internal/object"
	"spaceodyssey/internal/octree"
)

// LevelPolicy selects how the Merger handles partitions whose refinement
// level differs across the datasets of a combination. The paper's current
// implementation merges only equal-level partitions and names merging across
// levels as an open issue (§3.2.5); CoarsestCover is the one such strategy
// that pays at the recorded scale, on mixed-volume workloads (ROADMAP 1(c)).
type LevelPolicy int

const (
	// SameLevel merges a partition only when every member dataset has a
	// leaf at exactly that cell — the paper's default.
	SameLevel LevelPolicy = iota
	// CoarsestCover merges at the coarsest cell that is a leaf in some
	// member dataset, aggregating the finer datasets' leaves under that
	// cell into one segment. Merges happen earlier but copy more data.
	CoarsestCover
)

// String implements fmt.Stringer.
func (p LevelPolicy) String() string {
	switch p {
	case SameLevel:
		return "same-level"
	case CoarsestCover:
		return "coarsest-cover"
	}
	return fmt.Sprintf("LevelPolicy(%d)", int(p))
}

// mergeJob describes one partition to copy into a merge file: the cell key
// of the new entry and, per member dataset (in order), a reader appending
// the objects of that cell to dst (the copy's scratch: nobody else sees the
// source of a copy). Readers take the merge's context so the read I/O is
// charged to the merge's QoS scope.
type mergeJob struct {
	key     octree.Key
	readers []func(ctx context.Context, dst []object.Object) ([]object.Object, error)
}

// planJob applies the level policy to one candidate key, returning the
// entry key and per-dataset readers, or ok=false when the candidate cannot
// be merged under the policy.
func (m *Merger) planJob(
	cand octree.Key,
	datasets []object.DatasetID,
	trees map[object.DatasetID]*octree.Tree,
) (mergeJob, bool) {
	if m.cfg.LevelPolicy == CoarsestCover {
		return m.planCoarsestCover(cand, datasets, trees)
	}
	return m.planSameLevel(cand, datasets, trees)
}

// planSameLevel is the paper's rule: all members must hold a leaf at
// exactly the candidate key.
func (m *Merger) planSameLevel(
	cand octree.Key,
	datasets []object.DatasetID,
	trees map[object.DatasetID]*octree.Tree,
) (mergeJob, bool) {
	job := mergeJob{key: cand}
	for _, ds := range datasets {
		tree := trees[ds]
		if tree == nil {
			return mergeJob{}, false
		}
		leaf := tree.LeafAt(cand)
		if leaf == nil {
			return mergeJob{}, false
		}
		job.readers = append(job.readers, func(ctx context.Context, dst []object.Object) ([]object.Object, error) {
			return tree.ReadPartitionIntoCtx(ctx, dst, leaf)
		})
	}
	return job, true
}

// planCoarsestCover lifts the candidate to the coarsest cell that is a
// leaf in at least one member dataset, and aggregates the finer members'
// leaves under that cell.
func (m *Merger) planCoarsestCover(
	cand octree.Key,
	datasets []object.DatasetID,
	trees map[object.DatasetID]*octree.Tree,
) (mergeJob, bool) {
	// Find the coarsest covering-leaf level among members.
	minLevel := int(cand.Level)
	fanout := 0
	for _, ds := range datasets {
		tree := trees[ds]
		if tree == nil || !tree.Built() {
			return mergeJob{}, false
		}
		fanout = tree.FanoutPerDim()
		if cover := tree.LeafCovering(cand); cover != nil {
			if lvl := int(cover.Key().Level); lvl < minLevel {
				minLevel = lvl
			}
		}
	}
	if minLevel < 1 {
		minLevel = 1 // never merge the whole volume as a single entry
	}
	key := cand.Ancestor(uint32(minLevel), fanout)
	job := mergeJob{key: key}
	for _, ds := range datasets {
		tree := trees[ds]
		leaves := tree.LeavesUnder(key)
		if len(leaves) == 0 {
			// Tree is coarser than even the lifted key in this area (its
			// leaf sits above the key); aggregation is impossible.
			return mergeJob{}, false
		}
		job.readers = append(job.readers, func(ctx context.Context, dst []object.Object) ([]object.Object, error) {
			for _, leaf := range leaves {
				var err error
				if dst, err = tree.ReadPartitionIntoCtx(ctx, dst, leaf); err != nil {
					return nil, err
				}
			}
			return dst, nil
		})
	}
	return job, true
}

// overlapsEntry reports whether key contains (or equals) an existing entry
// of mf — appending it would create overlapping entries. The covering()
// check handles the opposite direction (key inside an existing entry).
func overlapsEntry(mf *MergeFile, key octree.Key, fanout int) bool {
	for cell := range mf.cells {
		if key.AncestorOf(cell, fanout) {
			return true
		}
	}
	return false
}
