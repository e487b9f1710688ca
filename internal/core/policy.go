package core

import (
	"fmt"

	"spaceodyssey/internal/object"
	"spaceodyssey/internal/octree"
)

// LevelPolicy selects how the Merger handles partitions whose refinement
// level differs across the datasets of a combination. The paper's current
// implementation merges only equal-level partitions and names merging across
// levels as an open issue (§3.2.5); CoarsestCover is the one such strategy
// that pays at the recorded scale, on mixed-volume workloads (ROADMAP 1(d)).
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
// of the new entry and, per member dataset (in order), the tree and the
// leaves whose objects make up that member's copy — member i's are
// leaves[ends[i-1]:ends[i]]. A stage plans every candidate into one job,
// reusing its lists.
type mergeJob struct {
	key    octree.Key
	trees  []*octree.Tree
	leaves []*octree.Partition
	ends   []int
}

// reset empties the job for a candidate planned at key.
func (j *mergeJob) reset(key octree.Key) {
	j.key = key
	j.trees, j.leaves, j.ends = j.trees[:0], j.leaves[:0], j.ends[:0]
}

// endMember closes the member whose tree is tree: its leaves are the ones
// appended since the previous member closed.
func (j *mergeJob) endMember(tree *octree.Tree) {
	j.trees = append(j.trees, tree)
	j.ends = append(j.ends, len(j.leaves))
}

// member returns member i's tree and leaves.
func (j *mergeJob) member(i int) (*octree.Tree, []*octree.Partition) {
	start := 0
	if i > 0 {
		start = j.ends[i-1]
	}
	return j.trees[i], j.leaves[start:j.ends[i]]
}

// planJob applies the level policy to one candidate key, planning into job
// the entry key and every member's leaves, or reports false when the
// candidate cannot be merged under the policy.
func (m *Merger) planJob(
	job *mergeJob,
	cand octree.Key,
	datasets []object.DatasetID,
	trees map[object.DatasetID]*octree.Tree,
) bool {
	if m.cfg.LevelPolicy == CoarsestCover {
		return m.planCoarsestCover(job, cand, datasets, trees)
	}
	return m.planSameLevel(job, cand, datasets, trees)
}

// planSameLevel is the paper's rule: all members must hold a leaf at
// exactly the candidate key.
func (m *Merger) planSameLevel(
	job *mergeJob,
	cand octree.Key,
	datasets []object.DatasetID,
	trees map[object.DatasetID]*octree.Tree,
) bool {
	job.reset(cand)
	for _, ds := range datasets {
		tree := trees[ds]
		if tree == nil {
			return false
		}
		leaf := tree.LeafAt(cand)
		if leaf == nil {
			return false
		}
		job.leaves = append(job.leaves, leaf)
		job.endMember(tree)
	}
	return true
}

// planCoarsestCover lifts the candidate to the coarsest cell that is a
// leaf in at least one member dataset, and aggregates the finer members'
// leaves under that cell.
func (m *Merger) planCoarsestCover(
	job *mergeJob,
	cand octree.Key,
	datasets []object.DatasetID,
	trees map[object.DatasetID]*octree.Tree,
) bool {
	// Find the coarsest covering-leaf level among members.
	minLevel := int(cand.Level)
	fanout := 0
	for _, ds := range datasets {
		tree := trees[ds]
		if tree == nil || !tree.Built() {
			return false
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
	job.reset(cand.Ancestor(uint32(minLevel), fanout))
	for _, ds := range datasets {
		tree := trees[ds]
		n := len(job.leaves)
		if job.leaves = tree.AppendLeavesUnder(job.leaves, job.key); len(job.leaves) == n {
			// Tree is coarser than even the lifted key in this area (its
			// leaf sits above the key); aggregation is impossible.
			return false
		}
		job.endMember(tree)
	}
	return true
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
