package core

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"

	"spaceodyssey/internal/geom"
	"spaceodyssey/internal/object"
	"spaceodyssey/internal/octree"
	"spaceodyssey/internal/pagefile"
	"spaceodyssey/internal/simdisk"
)

// Relation classifies a merge-file lookup (§3.2.3).
type Relation int

const (
	// RelNone — no usable merge file; individual files serve the query.
	RelNone Relation = iota
	// RelExact — a merge file for exactly the queried combination.
	RelExact
	// RelSuperset — a merge file containing more datasets than requested;
	// unneeded segments are skipped during the sequential read.
	RelSuperset
	// RelSubset — a merge file covering part of the requested datasets; the
	// remainder comes from individual files.
	RelSubset
)

// String implements fmt.Stringer.
func (r Relation) String() string {
	switch r {
	case RelNone:
		return "none"
	case RelExact:
		return "exact"
	case RelSuperset:
		return "superset"
	case RelSubset:
		return "subset"
	}
	return fmt.Sprintf("Relation(%d)", int(r))
}

// segment locates one dataset's objects for one partition. Normally it
// points into the merge file's own pages; with segment sharing enabled it
// may reference another merge file that already stores the same partition
// copy (§3.2.5's improved disk space management).
type segment struct {
	run   pagefile.Run
	count int // objects in run: what a read of the segment allocates, exactly
	// children is the in-memory directory of a segment of more than one
	// page, whose objects are stored grouped by the entry cell's children
	// (groupByChildren); nil for a one-page segment, stored in file order.
	// A shared reference carries its owner's.
	children []int32
	// sharedFrom, when non-empty, names the merge file actually holding
	// the pages.
	sharedFrom ComboKey
}

// groupByChildren is the layout of a merge segment of more than one page:
// objs, stored into slab (len(objs) long), grouped by the k³ children of the
// entry cell key (its box within bounds) with octree.BucketByCell, the
// bucketing a refinement of the cell would apply; the k³+1 child bounds are
// appended to dir. A merged cell is never refined (§3.2.2), so the grouping
// is what lets a read filter only the children the query's window meets
// (queryAcc.keepCell) instead of the whole coarse cell.
func groupByChildren(dir []int32, bounds geom.Box, key octree.Key, k int, objs, slab []object.Object) []int32 {
	return octree.BucketByCell(dir, EntryBox(bounds, key, k), k, objs, slab)
}

// MergeFile stores copies of partitions from the datasets of one
// combination so they can be read together sequentially (§3.2.2). For each
// partition key, the objects of every member dataset are laid out one after
// another; the file is append-only.
type MergeFile struct {
	combo    ComboKey
	members  []object.DatasetID
	memberOf map[object.DatasetID]bool
	file     *pagefile.File
	// entries holds one segment per (entry cell, member): an entry is added
	// and dropped with a segment of every member, so the segments of any one
	// member name every entry cell (cells and covers read the first's).
	entries  map[scanKey]segment
	lastUsed int64
}

// Combo returns the combination the file was merged for.
func (m *MergeFile) Combo() ComboKey { return m.combo }

// Members returns the datasets stored in the file.
func (m *MergeFile) Members() []object.DatasetID { return m.members }

// File exposes the page file holding the merged copies.
func (m *MergeFile) File() *pagefile.File { return m.file }

// NumEntries returns the number of merged partitions.
func (m *MergeFile) NumEntries() int { return len(m.entries) / len(m.members) }

// Pages returns the file size in pages.
func (m *MergeFile) Pages() int64 {
	n, err := m.file.NumPages()
	if err != nil {
		return 0
	}
	return n
}

// covering returns the merge entry whose cell contains key (walking the
// ancestor chain), if any, and member ds's segment of it: one lookup per
// level, and the segment a caller about to read it needs.
func (m *MergeFile) covering(key octree.Key, ds object.DatasetID, fanout int) (octree.Key, segment, bool) {
	return coveringIn(m.entries, key, ds, fanout)
}

// covers reports whether an entry's cell contains key. Every entry holds a
// segment of every member, so the first member's segments answer it.
func (m *MergeFile) covers(key octree.Key, fanout int) bool {
	_, _, ok := m.covering(key, m.members[0], fanout)
	return ok
}

// cells yields every entry cell once, in map order: the first member's
// segments name them all.
func (m *MergeFile) cells(yield func(octree.Key) bool) {
	for ref := range m.entries {
		if ref.ds == m.members[0] && !yield(ref.cell) {
			return
		}
	}
}

// coveringIn is covering over any entry map (merge files and staged merges
// share it).
func coveringIn(entries map[scanKey]segment, key octree.Key, ds object.DatasetID, fanout int) (octree.Key, segment, bool) {
	for anc := key; anc.Level >= 1; anc = anc.Ancestor(anc.Level-1, fanout) {
		if seg, ok := entries[scanKey{ds: ds, cell: anc}]; ok {
			return anc, seg, true
		}
	}
	return octree.Key{}, segment{}, false
}

// EntryKeys returns the merged partition keys in a deterministic order (for
// layout comparison and diagnostics).
func (m *MergeFile) EntryKeys() []octree.Key {
	out := make([]octree.Key, 0, m.NumEntries())
	for cell := range m.cells {
		out = append(out, cell)
	}
	sortKeys(out)
	return out
}

// compareKeys orders keys by (level, z, y, x), the collector's canonical
// order.
func compareKeys(a, b octree.Key) int {
	return cmp.Or(cmp.Compare(a.Level, b.Level), cmp.Compare(a.Z, b.Z),
		cmp.Compare(a.Y, b.Y), cmp.Compare(a.X, b.X))
}

// sortKeys sorts keys into the canonical order.
func sortKeys(keys []octree.Key) { slices.SortFunc(keys, compareKeys) }

// MergerConfig tunes the Merger.
type MergerConfig struct {
	// MergeThreshold is mt: a combination is merged once it has been
	// queried this many times. Paper default: 2.
	MergeThreshold int
	// MinCombination is the minimum |C| worth merging. Paper default: 3.
	MinCombination int
	// SpaceBudgetPages caps the total size of all merge files; exceeding it
	// evicts least-recently-used merge files (§3.2.4). 0 = unlimited.
	SpaceBudgetPages int64
	// LevelPolicy selects the strategy for partitions at different
	// refinement levels (§3.2.5). Default SameLevel (the paper's rule).
	LevelPolicy LevelPolicy
	// ShareSegments avoids copying a dataset's partition again when
	// another merge file already stores it, referencing those pages
	// instead (§3.2.5's improved disk space management). Reading a shared
	// segment jumps to the other file, costing one extra seek.
	ShareSegments bool
	// AdaptiveThresholds enables the runtime cost model of §3.2.5: every
	// AdaptEvery queries the merger compares how often merged segments are
	// reused against how much was copied, and adjusts mt within
	// [MergeThreshold, MaxMergeThreshold] — raising it when merges do not
	// pay off, lowering it when they do.
	AdaptiveThresholds bool
	// AdaptEvery is the adaptation period in queries (default 50).
	AdaptEvery int
	// MaxMergeThreshold bounds adaptive mt growth (default 8).
	MaxMergeThreshold int
}

// Merger owns the merge files and the directory that maps combinations to
// them (§3.2).
//
// Synchronization: the engine's layout lock serializes every structural
// mutation (publish, EnforceBudget) against the shared read path (Lookup,
// ReadSegment). The read path still mutates accounting state —
// recency ticks, segment-read counts, the adaptive threshold — so those
// fields live under the internal accMu, making Lookup/ReadSegment safe for
// parallel readers.
type Merger struct {
	cfg   MergerConfig
	dev   simdisk.Storage
	files map[ComboKey]*MergeFile

	// accMu guards the accounting fields mutated under the engine's shared
	// (read) lock: tick, every MergeFile.lastUsed, segmentsRead,
	// queriesSeen, currentMT and the threshold counters.
	accMu     sync.Mutex
	tick      int64
	currentMT int // effective merge threshold (adapts when enabled)

	// segIndex maps (dataset, entry cell) to the merge file owning a copy,
	// for segment sharing.
	segIndex map[scanKey]ComboKey

	// adaptation bookkeeping
	queriesSeen     int
	segmentsWritten int
	segmentsRead    int

	// MergesCreated, PartitionsMerged, Evictions, SegmentsShared,
	// ThresholdRaises and ThresholdDrops are lifetime counters.
	MergesCreated    int
	PartitionsMerged int
	Evictions        int
	SegmentsShared   int
	ThresholdRaises  int
	ThresholdDrops   int
}

// NewMerger returns an empty merger.
func NewMerger(dev simdisk.Storage, cfg MergerConfig) *Merger {
	if cfg.MergeThreshold <= 0 {
		cfg.MergeThreshold = 2
	}
	if cfg.MinCombination <= 0 {
		cfg.MinCombination = 3
	}
	if cfg.AdaptEvery <= 0 {
		cfg.AdaptEvery = 50
	}
	if cfg.MaxMergeThreshold <= 0 {
		cfg.MaxMergeThreshold = 8
	}
	return &Merger{
		cfg:       cfg,
		dev:       dev,
		files:     make(map[ComboKey]*MergeFile),
		currentMT: cfg.MergeThreshold,
		segIndex:  make(map[scanKey]ComboKey),
	}
}

// Config returns the effective configuration.
func (m *Merger) Config() MergerConfig { return m.cfg }

// Threshold returns the current (possibly adapted) merge threshold mt.
func (m *Merger) Threshold() int {
	m.accMu.Lock()
	defer m.accMu.Unlock()
	return m.currentMT
}

// OnQuery advances the adaptation clock; the engine calls it once per
// query. When adaptation is enabled, every AdaptEvery queries the merger
// compares segment reuse (reads per written segment) and nudges mt: reuse
// below 1 means copies are rarely read back — merge more conservatively;
// reuse above 4 means merging pays — merge eagerly.
func (m *Merger) OnQuery() {
	if !m.cfg.AdaptiveThresholds {
		return
	}
	m.accMu.Lock()
	defer m.accMu.Unlock()
	m.queriesSeen++
	if m.queriesSeen%m.cfg.AdaptEvery != 0 || m.segmentsWritten == 0 {
		return
	}
	reuse := float64(m.segmentsRead) / float64(m.segmentsWritten)
	switch {
	case reuse < 1 && m.currentMT < m.cfg.MaxMergeThreshold:
		m.currentMT++
		m.ThresholdRaises++
	case reuse > 4 && m.currentMT > m.cfg.MergeThreshold:
		m.currentMT--
		m.ThresholdDrops++
	}
}

// NumFiles returns how many merge files exist.
func (m *Merger) NumFiles() int { return len(m.files) }

// Files returns the merge files ordered by combination key (for layout
// comparison and diagnostics). Caller must hold the engine's layout lock.
func (m *Merger) Files() []*MergeFile {
	out := make([]*MergeFile, 0, len(m.files))
	for _, f := range m.files {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].combo < out[j].combo })
	return out
}

// TotalPages returns the disk space merge files currently occupy.
func (m *Merger) TotalPages() int64 {
	var n int64
	for _, f := range m.files {
		n += f.Pages()
	}
	return n
}

// Lookup applies the paper's routing: exact combination first, then the
// smallest superset, then the subset covering the most requested datasets;
// among equally good candidates the lowest ComboKey wins, so routing — and
// with it the simulated clock and the converged layout — never depends on
// map order. The chosen file's recency is ticked for budget eviction.
func (m *Merger) Lookup(datasets []object.DatasetID) (*MergeFile, Relation) {
	return m.route(KeyOf(datasets), datasets)
}

// LookupNoTouch is Lookup without the recency tick: background maintenance
// re-checks coverage through it so observation never perturbs the LRU
// eviction order queries establish.
func (m *Merger) LookupNoTouch(datasets []object.DatasetID) (*MergeFile, Relation) {
	return m.lookup(KeyOf(datasets), datasets)
}

// route is Lookup for a caller that already holds the combination's key.
func (m *Merger) route(key ComboKey, datasets []object.DatasetID) (*MergeFile, Relation) {
	f, rel := m.lookup(key, datasets)
	if f != nil {
		m.touch(f)
	}
	return f, rel
}

// lookup is the routing rule; key must be KeyOf(datasets).
func (m *Merger) lookup(key ComboKey, datasets []object.DatasetID) (*MergeFile, Relation) {
	if f, ok := m.files[key]; ok {
		return f, RelExact
	}
	want := make(map[object.DatasetID]bool, len(datasets))
	for _, ds := range datasets {
		want[ds] = true
	}
	var best *MergeFile
	bestRel := RelNone
	for _, f := range m.files {
		super, sub := true, true
		for _, ds := range datasets {
			if !f.memberOf[ds] {
				super = false
				break
			}
		}
		for _, ds := range f.members {
			if !want[ds] {
				sub = false
				break
			}
		}
		switch {
		case super:
			// Prefer the smallest superset (fewest segments to skip); any
			// superset beats any subset.
			if bestRel != RelSuperset || len(f.members) < len(best.members) ||
				len(f.members) == len(best.members) && f.combo < best.combo {
				best, bestRel = f, RelSuperset
			}
		case sub && bestRel != RelSuperset:
			// Prefer the subset holding the most requested datasets.
			if bestRel != RelSubset || len(f.members) > len(best.members) ||
				len(f.members) == len(best.members) && f.combo < best.combo {
				best, bestRel = f, RelSubset
			}
		}
	}
	return best, bestRel
}

// NeedsMerge reports whether a merge step could possibly do work for the
// combination: merging is allowed and some candidate partition is not yet
// covered by the combination's merge file. It over-approximates (an
// uncovered candidate may still fail level-policy qualification); the
// engine layers a futility check on top so repeated no-op attempts do not
// serialize steady-state traffic. Safe under the engine's shared lock, and
// the candidate order is irrelevant.
func (m *Merger) NeedsMerge(key ComboKey, datasets []object.DatasetID, candidates []octree.Key, fanout int) bool {
	if len(datasets) < m.cfg.MinCombination || len(candidates) == 0 {
		return false
	}
	mf := m.files[key]
	if mf == nil {
		return true
	}
	for _, cand := range candidates {
		if !mf.covers(cand, fanout) {
			return true
		}
	}
	return false
}

// newMergeFile allocates an empty merge file for the combination without
// registering it in the directory — a staged merge keeps a new file private
// until publish, which hands it the staged entries. It holds several
// datasets, so it is created with no affinity group: a device array deals
// merge files across its members.
func (m *Merger) newMergeFile(key ComboKey, datasets []object.DatasetID) *MergeFile {
	members := append([]object.DatasetID(nil), datasets...)
	memberOf := make(map[object.DatasetID]bool, len(members))
	for _, ds := range members {
		memberOf[ds] = true
	}
	return &MergeFile{
		combo:    key,
		members:  members,
		memberOf: memberOf,
		file:     pagefile.Create(m.dev, "merge:"+string(key)),
	}
}

// stagedMerge is one merge step between its two halves: partition copies
// already appended to the merge file's pages but not yet registered. No
// reader can reach pages that have no directory entry, so the copy I/O of
// stage may run under shared locks while queries keep flowing, and publish
// flips the entries in under the exclusive layout lock in O(entries) map
// inserts.
type stagedMerge struct {
	key     ComboKey
	mf      *MergeFile // the combination's file; private while isNew
	isNew   bool
	entries map[scanKey]segment // as MergeFile.entries
	order   []octree.Key        // the staged entry cells, in append order
}

// covering reports whether key's cell is covered by a published or staged
// entry.
func (st *stagedMerge) covering(key octree.Key, fanout int) bool {
	if st.mf == nil {
		return false // no file yet: nothing is published or staged
	}
	staged := MergeFile{members: st.mf.members, entries: st.entries}
	return st.mf.covers(key, fanout) || staged.covers(key, fanout)
}

// overlaps reports whether key contains a published or staged entry.
func (st *stagedMerge) overlaps(key octree.Key, fanout int) bool {
	if st.mf != nil && overlapsEntry(st.mf, key, fanout) {
		return true
	}
	for _, existing := range st.order {
		if key.AncestorOf(existing, fanout) {
			return true
		}
	}
	return false
}

// CanStageMerges reports whether a merge step's copy stage may run under
// shared locks: the paper's SameLevel policy with segment sharing off. No
// plan mutates a tree, so both exclusions are about what a stage reads.
// Segment sharing reads the cross-file segment index and other combinations'
// entries, which a concurrent publish writes under the exclusive layout lock.
// CoarsestCover lifts a candidate to an ancestor cell and copies leaves the
// triggering queries never touched; its layouts (oracle storms, its pinned
// clock row) have only been established under the exclusive stage, whose
// LRU-tick and futility-epoch semantics differ from the shared one's (see
// mergeStep) — staging it shared is a behaviour change nobody has measured.
func (m *Merger) CanStageMerges() bool {
	return m.cfg.LevelPolicy == SameLevel && !m.cfg.ShareSegments
}

// stage is the first half of a merge step and its one candidate loop: every
// candidate not yet covered is qualified under the configured LevelPolicy —
// by default the paper's same-refinement-level rule — and copied into the
// combination's merge file (created privately when none exists), member by
// member in order and back to back (§3.2.2's layout), WITHOUT registering
// the entries. With segment sharing on, a member whose copy of the cell
// another merge file already owns is referenced instead of copied.
//
// When CanStageMerges, the caller needs only the engine's shared layout lock
// plus read locks on every member tree; otherwise it must hold them
// exclusively. Either way it must guarantee single-flight per combination
// (two concurrent stages would race on the file's append position). ctx
// carries the QoS scope the copy I/O is charged to; callers pass a
// non-cancelable context — a merge is never interrupted mid-way.
//
// On an error the stage keeps the entries it completed (their pages are
// written; dropping them would leak unreachable space in a live file) and
// deletes a private file nothing was staged into; the caller publishes
// whatever it gets back.
func (m *Merger) stage(
	ctx context.Context,
	key ComboKey,
	datasets []object.DatasetID,
	candidates []octree.Key,
	trees map[object.DatasetID]*octree.Tree,
) (*stagedMerge, error) {
	st := &stagedMerge{key: key, mf: m.files[key]}
	if len(datasets) < m.cfg.MinCombination {
		return st, nil
	}
	st.entries = make(map[scanKey]segment)
	fanout, bounds := trees[datasets[0]].FanoutPerDim(), trees[datasets[0]].Bounds()
	dir := dirScratchPool.Get().(*[]int32)
	defer func() {
		st.carveChildren(*dir)
		*dir = (*dir)[:0]
		dirScratchPool.Put(dir)
	}()
	segs := make([]segment, len(datasets)) // one job's, by member
	job := mergeJobPool.Get().(*mergeJob)
	defer putMergeJob(job)
	for _, cand := range candidates {
		if st.covering(cand, fanout) {
			continue
		}
		if !m.planJob(job, cand, datasets, trees) {
			continue
		}
		// The policy may have lifted or kept the key; re-check both
		// directions against published and staged entries to keep them
		// disjoint.
		if job.key != cand && st.covering(job.key, fanout) {
			continue
		}
		if st.overlaps(job.key, fanout) {
			continue
		}
		if st.mf == nil {
			st.mf = m.newMergeFile(key, datasets)
			st.isNew = true
		}
		if err := m.copyJob(ctx, st.mf, datasets, job, bounds, fanout, dir, segs); err != nil {
			if len(st.order) == 0 && st.isNew {
				_ = st.mf.file.Delete() // best effort: the copy error is the one to report
				st.mf, st.isNew = nil, false
			}
			return st, err
		}
		for i, ds := range datasets {
			st.entries[scanKey{ds: ds, cell: job.key}] = segs[i]
		}
		st.order = append(st.order, job.key)
	}
	return st, nil
}

// copyJob copies one partition into mf's pages, and writes the segment of
// each member dataset to segs, in order: the objects are read from the
// original partitions and appended — unless sharing is on and another live
// merge file owns that exact copy. A copy of more than one page is stored
// grouped by the entry cell's children (the cell's box within bounds, at the
// trees' fanout k), its child bounds appended to dir; a one-page copy — which
// the directory could only make slower to read (a per-child walk over a
// handful of objects) — is written in file order, as read.
func (m *Merger) copyJob(ctx context.Context, mf *MergeFile, datasets []object.DatasetID, job *mergeJob,
	bounds geom.Box, k int, dir *[]int32, segs []segment) error {
	// One pooled slice is the source of every member's copy in turn, another
	// the grouped copy of a member of more than one page.
	scratch, slab := pagefile.GetObjSlice(), pagefile.GetObjSlice()
	defer pagefile.PutObjSlice(scratch)
	defer pagefile.PutObjSlice(slab)
	for i, ds := range datasets {
		ref := scanKey{ds: ds, cell: job.key}
		if m.cfg.ShareSegments {
			if owner, ok := m.segIndex[ref]; ok && owner != mf.combo {
				if ownerFile, live := m.files[owner]; live {
					if seg, ok := ownerFile.entries[ref]; ok && seg.sharedFrom == "" {
						segs[i] = segment{run: seg.run, count: seg.count, children: seg.children, sharedFrom: owner}
						continue
					}
				}
			}
		}
		tree, leaves := job.member(i)
		objs := (*scratch)[:0]
		for _, leaf := range leaves {
			var err error
			if objs, err = tree.ReadPartitionIntoCtx(ctx, objs, leaf); err != nil {
				*scratch = objs
				return fmt.Errorf("merge read %v ds %d: %w", job.key, ds, err)
			}
		}
		*scratch = objs
		var children []int32
		if len(objs) > object.PageCapacity {
			*slab = slices.Grow((*slab)[:0], len(objs))[:len(objs)]
			n := len(*dir)
			*dir = groupByChildren(*dir, bounds, job.key, k, objs, *slab)
			objs, children = *slab, (*dir)[n:]
		}
		run, err := mf.file.AppendObjectsCtx(ctx, objs)
		if err != nil {
			return fmt.Errorf("merge write %v ds %d: %w", job.key, ds, err)
		}
		segs[i] = segment{run: run, count: len(objs), children: children}
	}
	return nil
}

// mergeJobPool recycles the job a stage plans its candidates into.
var mergeJobPool = sync.Pool{New: func() any { return new(mergeJob) }}

// putMergeJob returns a stage's job to the pool, its lists cleared so that
// the pool keeps no tree or partition alive.
func putMergeJob(job *mergeJob) {
	clear(job.trees[:cap(job.trees)])
	clear(job.leaves[:cap(job.leaves)])
	job.reset(octree.Key{})
	mergeJobPool.Put(job)
}

// dirScratchPool recycles the scratch a merge stage appends its segments'
// child directories to before carveChildren moves them out.
var dirScratchPool = sync.Pool{New: func() any { return new([]int32) }}

// carveChildren moves the child directories the stage's copies appended to
// scratch into one allocation of their total size, which the merge file
// keeps them in: a stage allocates once for its directories, not once per
// segment, and the scratch returns to its pool referenced by no segment.
// (A directory taken before the scratch last grew still reads the array it
// was written to.)
func (st *stagedMerge) carveChildren(scratch []int32) {
	if len(scratch) == 0 {
		return
	}
	arena := make([]int32, 0, len(scratch))
	for ref, seg := range st.entries {
		if seg.children == nil || seg.sharedFrom != "" {
			continue // no directory, or the owner's, carved by the owner's stage
		}
		n := len(arena)
		arena = append(arena, seg.children...)
		seg.children = arena[n:len(arena):len(arena)]
		st.entries[ref] = seg
	}
}

// publish is the second half of a merge step: it registers the staged
// entries (and, for a fresh combination, the merge file itself) so readers
// can route to them. The caller holds the exclusive layout lock, so
// publication is atomic — a query sees either none or all of the staged
// entries, never a partial merge step. If the target merge file was evicted
// between the halves the staged pages died with the file and nothing is
// published. Returns the number of entries published.
func (m *Merger) publish(st *stagedMerge) int {
	if len(st.order) == 0 {
		return 0
	}
	if st.isNew {
		if m.files[st.key] != nil {
			// A competing merge registered the combination mid-stage; the
			// engine's single-flight rule makes this unreachable, but
			// dropping the stage (and its private file) is always safe.
			_ = st.mf.file.Delete()
			return 0
		}
		m.files[st.key] = st.mf
		st.mf.entries = st.entries // a new file's entries are the staged ones
		m.MergesCreated++
	} else if m.files[st.key] != st.mf {
		return 0 // evicted mid-stage; the staged pages are gone with the file
	}
	m.PartitionsMerged += len(st.order)
	for ref, seg := range st.entries {
		if !st.isNew {
			st.mf.entries[ref] = seg
		}
		if seg.sharedFrom != "" {
			m.SegmentsShared++
			continue
		}
		m.segmentsWritten++
		if !m.cfg.ShareSegments {
			continue // the cross-file index is only read with sharing on
		}
		if _, owned := m.segIndex[ref]; !owned {
			m.segIndex[ref] = st.key // the first file to copy a cell owns it
		}
	}
	m.touch(st.mf)
	return len(st.order)
}

// touchCombo ticks the recency of the combination's merge file, if it has
// one.
func (m *Merger) touchCombo(key ComboKey) {
	if mf := m.files[key]; mf != nil {
		m.touch(mf)
	}
}

// ReadSegmentCtx reads the objects of one dataset for one merged partition
// into dst's backing array, grown once to fit (a nil dst: one allocation of
// exactly the segment's size; dst's length is ignored, the content is the
// segment's alone); the content it returns carries the segment's child
// directory (nil for a one-page segment). It follows a shared-segment
// reference when present; the underlying run read aborts at the page
// boundary where the context expired. A failed read returns a
// *mergeReadError naming the file read.
func (m *Merger) ReadSegmentCtx(ctx context.Context, dst []object.Object, mf *MergeFile, key octree.Key, ds object.DatasetID) (cellContent, error) {
	seg, ok := mf.entries[scanKey{ds: ds, cell: key}]
	if !ok {
		return cellContent{}, fmt.Errorf("merge file %s has no segment of dataset %d at %v", mf.combo, ds, key)
	}
	m.touch(mf)
	m.accMu.Lock()
	m.segmentsRead++
	m.accMu.Unlock()
	if seg.sharedFrom != "" {
		owner, live := m.files[seg.sharedFrom]
		if !live {
			return cellContent{}, fmt.Errorf("merge file %s entry %v: shared owner %s evicted",
				mf.combo, key, seg.sharedFrom)
		}
		m.touch(owner)
		mf = owner
	}
	objs, err := mf.file.ReadRunIntoCtx(ctx, slices.Grow(dst[:0], seg.count), seg.run)
	if err != nil {
		return cellContent{}, &mergeReadError{combo: mf.combo, err: err}
	}
	return cellContent{objs: objs, children: seg.children}, nil
}

// EnforceBudget evicts least-recently-used merge files until the space
// budget is met (§3.2.4). It returns the evicted combinations so the engine
// can reset their statistics.
func (m *Merger) EnforceBudget() ([]ComboKey, error) {
	if m.cfg.SpaceBudgetPages <= 0 {
		return nil, nil
	}
	var evicted []ComboKey
	for m.TotalPages() > m.cfg.SpaceBudgetPages && len(m.files) > 0 {
		var victim *MergeFile
		for _, f := range m.files {
			if victim == nil || f.lastUsed < victim.lastUsed {
				victim = f
			}
		}
		if err := m.evict(victim); err != nil {
			return evicted, err
		}
		evicted = append(evicted, victim.combo)
	}
	return evicted, nil
}

// evict deletes merge file f and everything that routes to it: its
// directory entry, its cells' ownership in the segment index and the entries
// of other files that share its pages. The budget and the repair of an
// unreadable file both evict through it.
func (m *Merger) evict(f *MergeFile) error {
	if err := f.file.Delete(); err != nil {
		return fmt.Errorf("evict %s: %w", f.combo, err)
	}
	delete(m.files, f.combo)
	m.dropReferencesTo(f.combo)
	m.Evictions++
	return nil
}

// dropReferencesTo removes segment-index ownership of an evicted file and
// invalidates entries in other files that shared its pages (they lose
// coverage and will re-merge on demand).
func (m *Merger) dropReferencesTo(owner ComboKey) {
	for ref, who := range m.segIndex {
		if who == owner {
			delete(m.segIndex, ref)
		}
	}
	for _, f := range m.files {
		for ref, seg := range f.entries {
			if seg.sharedFrom != owner {
				continue
			}
			for _, ds := range f.members { // the whole entry goes
				delete(f.entries, scanKey{ds: ds, cell: ref.cell})
			}
		}
	}
}

// EntryBox returns the spatial cell of a merged entry key within bounds —
// the region a cached merge segment covers. fanout is the per-dimension
// fanout of the trees; the geometry is the canonical key-to-cell mapping in
// octree.Key.Box.
func EntryBox(bounds geom.Box, key octree.Key, fanout int) geom.Box {
	return key.Box(bounds, fanout)
}

// touch marks f as most recently used for budget eviction. Safe under the
// engine's shared lock.
func (m *Merger) touch(f *MergeFile) {
	m.accMu.Lock()
	m.tick++
	f.lastUsed = m.tick
	m.accMu.Unlock()
}
