package core

import (
	"context"
	"fmt"
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
	run pagefile.Run
	// sharedFrom, when non-empty, names the merge file actually holding
	// the pages.
	sharedFrom ComboKey
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
	entries  map[octree.Key]map[object.DatasetID]segment
	lastUsed int64
}

// Combo returns the combination the file was merged for.
func (m *MergeFile) Combo() ComboKey { return m.combo }

// Members returns the datasets stored in the file.
func (m *MergeFile) Members() []object.DatasetID { return m.members }

// NumEntries returns the number of merged partitions.
func (m *MergeFile) NumEntries() int { return len(m.entries) }

// Pages returns the file size in pages.
func (m *MergeFile) Pages() int64 {
	n, err := m.file.NumPages()
	if err != nil {
		return 0
	}
	return n
}

// covering returns the merge entry whose cell contains key (walking the
// ancestor chain), if any.
func (m *MergeFile) covering(key octree.Key, fanout int) (octree.Key, bool) {
	return coveringIn(m.entries, key, fanout)
}

// coveringIn is covering over any entry map (merge files and staged merges
// share it).
func coveringIn(entries map[octree.Key]map[object.DatasetID]segment, key octree.Key, fanout int) (octree.Key, bool) {
	for lvl := int(key.Level); lvl >= 1; lvl-- {
		anc := key.Ancestor(uint8(lvl), fanout)
		if _, ok := entries[anc]; ok {
			return anc, true
		}
	}
	return octree.Key{}, false
}

// EntryKeys returns the merged partition keys in a deterministic order (for
// layout comparison and diagnostics).
func (m *MergeFile) EntryKeys() []octree.Key {
	out := make([]octree.Key, 0, len(m.entries))
	for k := range m.entries {
		out = append(out, k)
	}
	sortKeys(out)
	return out
}

// sortKeys orders keys by (level, z, y, x), the collector's canonical order.
func sortKeys(keys []octree.Key) {
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.Level != b.Level {
			return a.Level < b.Level
		}
		if a.Z != b.Z {
			return a.Z < b.Z
		}
		if a.Y != b.Y {
			return a.Y < b.Y
		}
		return a.X < b.X
	})
}

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
// mutation (MergeOrExtend, EnforceBudget) against the shared read path
// (Lookup, ReadSegment). The read path still mutates accounting state —
// recency ticks, segment-read counts, the adaptive threshold — so those
// fields live under the internal accMu, making Lookup/ReadSegment safe for
// parallel readers.
type Merger struct {
	cfg   MergerConfig
	dev   simdisk.Storage
	files map[ComboKey]*MergeFile

	// PlaceGroup, when non-nil, names the placement affinity group for a
	// new merge file from its member datasets. The engine sets it to the
	// hottest member's dataset group, so on a device array a merge file
	// co-locates with the data it is most often read alongside. Nil places
	// merge files with no affinity (the policy falls back to name hashing).
	PlaceGroup func(members []object.DatasetID) string

	// accMu guards the accounting fields mutated under the engine's shared
	// (read) lock: tick, every MergeFile.lastUsed, segmentsRead,
	// queriesSeen, currentMT and the threshold counters.
	accMu     sync.Mutex
	tick      int64
	currentMT int // effective merge threshold (adapts when enabled)

	// segIndex maps (entry key, dataset) to the merge file owning a copy,
	// for segment sharing.
	segIndex map[segRef]ComboKey

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

// segRef identifies one dataset's copy of one partition across all merge
// files.
type segRef struct {
	key octree.Key
	ds  object.DatasetID
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
		segIndex:  make(map[segRef]ComboKey),
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
// smallest superset, then the subset covering the most requested datasets.
// The chosen file's recency is ticked for budget eviction.
func (m *Merger) Lookup(datasets []object.DatasetID) (*MergeFile, Relation) {
	f, rel := m.lookup(datasets)
	if f != nil {
		m.touch(f)
	}
	return f, rel
}

// LookupNoTouch is Lookup without the recency tick: background maintenance
// re-checks coverage through it so observation never perturbs the LRU
// eviction order queries establish.
func (m *Merger) LookupNoTouch(datasets []object.DatasetID) (*MergeFile, Relation) {
	return m.lookup(datasets)
}

// lookup is the routing rule shared by Lookup and LookupNoTouch.
func (m *Merger) lookup(datasets []object.DatasetID) (*MergeFile, Relation) {
	key := KeyOf(datasets)
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
			if bestRel != RelSuperset || len(f.members) < len(best.members) {
				best, bestRel = f, RelSuperset
			}
		case sub && bestRel != RelSuperset:
			// Prefer the subset holding the most requested datasets.
			if bestRel != RelSubset || len(f.members) > len(best.members) {
				best, bestRel = f, RelSubset
			}
		}
	}
	return best, bestRel
}

// NeedsMerge reports whether MergeOrExtend could possibly do work for the
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
		if _, covered := mf.covering(cand, fanout); !covered {
			return true
		}
	}
	return false
}

// MergeOrExtend creates the merge file for the combination if the
// thresholds allow, and appends every qualifying partition from candidates
// that is not already covered. Qualification follows the configured
// LevelPolicy — by default the paper's same-refinement-level rule. Returns
// the number of partitions appended. ctx carries the QoS scope the copy I/O
// is charged to; callers pass a non-cancelable context — a merge is never
// interrupted mid-way.
func (m *Merger) MergeOrExtend(
	ctx context.Context,
	key ComboKey,
	datasets []object.DatasetID,
	candidates []octree.Key,
	trees map[object.DatasetID]*octree.Tree,
) (int, error) {
	if len(datasets) < m.cfg.MinCombination {
		return 0, nil
	}
	mf := m.files[key]
	fanout := 0
	for _, t := range trees {
		fanout = t.FanoutPerDim()
		break
	}

	appended := 0
	for _, cand := range candidates {
		if mf != nil {
			if _, covered := mf.covering(cand, fanout); covered {
				continue
			}
		}
		job, ok := m.planJob(cand, datasets, trees)
		if !ok {
			continue
		}
		if mf != nil {
			// The policy may have lifted or kept the key; re-check both
			// directions against existing entries to keep them disjoint.
			if _, covered := mf.covering(job.key, fanout); covered {
				continue
			}
			if overlapsEntry(mf, job.key, fanout) {
				continue
			}
		}
		if mf == nil {
			mf = m.newMergeFile(key, datasets)
		}
		if err := m.appendJob(ctx, mf, datasets, job); err != nil {
			return appended, err
		}
		appended++
	}
	if mf != nil {
		m.touch(mf)
	}
	return appended, nil
}

// newMergeFile registers an empty merge file for the combination.
func (m *Merger) newMergeFile(key ComboKey, datasets []object.DatasetID) *MergeFile {
	mf := m.buildMergeFile(key, datasets)
	m.files[key] = mf
	m.MergesCreated++
	return mf
}

// buildMergeFile allocates an empty merge file for the combination without
// registering it in the directory — staged merges keep the file private
// until PublishMerge.
func (m *Merger) buildMergeFile(key ComboKey, datasets []object.DatasetID) *MergeFile {
	members := append([]object.DatasetID(nil), datasets...)
	memberOf := make(map[object.DatasetID]bool, len(members))
	for _, ds := range members {
		memberOf[ds] = true
	}
	group := ""
	if m.PlaceGroup != nil {
		group = m.PlaceGroup(members)
	}
	return &MergeFile{
		combo:    key,
		members:  members,
		memberOf: memberOf,
		file:     pagefile.CreateInGroup(m.dev, "merge:"+string(key), group),
		entries:  make(map[octree.Key]map[object.DatasetID]segment),
	}
}

// PreparedMerge is a staged merge step: partition copies already appended to
// the merge file's pages but not yet published — no reader can reach pages
// that have no directory entry, so the expensive copy I/O of PrepareMerge
// runs under shared locks, off the query path, and PublishMerge flips the
// entries in under the exclusive layout lock in O(entries) map inserts.
// The stage's reads and appends are charged to the context's QoS scope —
// background merges carry a maintenance-priority scope the storage budget
// can throttle.
type PreparedMerge struct {
	key     ComboKey
	mf      *MergeFile
	isNew   bool
	entries map[octree.Key]map[object.DatasetID]segment
	order   []octree.Key // append order, for deterministic publication
}

// Appended returns how many partition entries the staged merge holds.
func (p *PreparedMerge) Appended() int { return len(p.order) }

// covering reports whether key's cell is covered by a published or staged
// entry.
func (p *PreparedMerge) covering(key octree.Key, fanout int) bool {
	if p.mf != nil {
		if _, ok := p.mf.covering(key, fanout); ok {
			return true
		}
	}
	_, ok := coveringIn(p.entries, key, fanout)
	return ok
}

// overlaps reports whether key contains a published or staged entry.
func (p *PreparedMerge) overlaps(key octree.Key, fanout int) bool {
	if p.mf != nil && overlapsEntry(p.mf, key, fanout) {
		return true
	}
	for existing := range p.entries {
		if key.AncestorOf(existing, fanout) {
			return true
		}
	}
	return false
}

// CanStageMerges reports whether the configuration allows the two-stage
// prepare/publish merge path: the paper's SameLevel policy with segment
// sharing off. RefineToFinest and CoarsestCover may mutate member trees
// mid-merge and segment sharing reads the cross-file segment index, so both
// fall back to the classic exclusive MergeOrExtend.
func (m *Merger) CanStageMerges() bool {
	return m.cfg.LevelPolicy == SameLevel && !m.cfg.ShareSegments
}

// PrepareMerge is stage one of a two-stage merge: it plans and copies every
// qualifying uncovered candidate into the combination's merge file (created
// privately when none exists) WITHOUT registering the entries, and returns
// the staged state for PublishMerge. Because unregistered pages are
// unreachable, the caller only needs the engine's shared layout lock plus
// read locks on every member tree — queries keep flowing while the copies
// run. The caller must guarantee single-flight per combination (two
// concurrent prepares for one combination would race on the file's append
// position). Returns nil when there is nothing to stage.
func (m *Merger) PrepareMerge(
	ctx context.Context,
	key ComboKey,
	datasets []object.DatasetID,
	candidates []octree.Key,
	trees map[object.DatasetID]*octree.Tree,
) (*PreparedMerge, error) {
	if !m.CanStageMerges() {
		return nil, fmt.Errorf("core: merge staging requires the same-level policy without segment sharing")
	}
	if len(datasets) < m.cfg.MinCombination {
		return nil, nil
	}
	fanout := 0
	for _, t := range trees {
		fanout = t.FanoutPerDim()
		break
	}
	prep := &PreparedMerge{
		key:     key,
		mf:      m.files[key],
		entries: make(map[octree.Key]map[object.DatasetID]segment),
	}
	for _, cand := range candidates {
		if prep.covering(cand, fanout) {
			continue
		}
		job, ok := m.planJob(cand, datasets, trees)
		if !ok {
			continue
		}
		// The policy may have lifted or kept the key; re-check both
		// directions against published and staged entries to keep them
		// disjoint.
		if job.key != cand && prep.covering(job.key, fanout) {
			continue
		}
		if prep.overlaps(job.key, fanout) {
			continue
		}
		if prep.mf == nil {
			prep.mf = m.buildMergeFile(key, datasets)
			prep.isNew = true
		}
		segs := make(map[object.DatasetID]segment, len(datasets))
		for i, ds := range datasets {
			objs, err := job.readers[i](ctx)
			if err != nil {
				return prep.failed(), fmt.Errorf("merge read %v ds %d: %w", job.key, ds, err)
			}
			run, err := prep.mf.file.AppendObjectsCtx(ctx, objs)
			if err != nil {
				return prep.failed(), fmt.Errorf("merge write %v ds %d: %w", job.key, ds, err)
			}
			segs[ds] = segment{run: run}
		}
		prep.entries[job.key] = segs
		prep.order = append(prep.order, job.key)
	}
	if len(prep.order) == 0 {
		return nil, nil
	}
	return prep, nil
}

// failed trims a stage that hit an error down to its completed entries —
// mirroring the synchronous MergeOrExtend, which also keeps the partitions
// it appended before failing. A failed stage with nothing completed
// deletes the private file it may have created, so no unreachable pages
// leak; the caller publishes whatever non-nil stage remains.
func (p *PreparedMerge) failed() *PreparedMerge {
	if len(p.order) > 0 {
		return p
	}
	if p.isNew && p.mf != nil {
		_ = p.mf.file.Delete()
	}
	return nil
}

// PublishMerge is stage two: it registers the staged entries (and, for a
// fresh combination, the merge file itself) so readers can route to them.
// The caller holds the exclusive layout lock, so publication is atomic —
// a query sees either none or all of the staged entries, never a partial
// merge step. If the target merge file was evicted between the stages the
// staged pages died with the file and nothing is published. Returns the
// number of entries published.
func (m *Merger) PublishMerge(prep *PreparedMerge) int {
	if prep == nil || len(prep.order) == 0 {
		return 0
	}
	if prep.isNew {
		if m.files[prep.key] != nil {
			// A competing merge registered the combination mid-stage; the
			// scheduler's single-flight rule makes this unreachable, but
			// dropping the stage (and its private file) is always safe.
			_ = prep.mf.file.Delete()
			return 0
		}
		m.files[prep.key] = prep.mf
		m.MergesCreated++
	} else if m.files[prep.key] != prep.mf {
		return 0 // evicted mid-stage; the staged pages are gone with the file
	}
	for _, k := range prep.order {
		segs := prep.entries[k]
		prep.mf.entries[k] = segs
		m.PartitionsMerged++
		m.segmentsWritten += len(segs)
	}
	m.touch(prep.mf)
	return len(prep.order)
}

// appendJob copies one partition into the merge file: for every member
// dataset (in order) the objects are read from the original partitions and
// appended back to back (§3.2.2's layout) — unless another merge file
// already holds that exact copy and sharing is enabled. The copy I/O is
// charged to ctx's QoS scope.
func (m *Merger) appendJob(ctx context.Context, mf *MergeFile, datasets []object.DatasetID, job mergeJob) error {
	segs := make(map[object.DatasetID]segment, len(datasets))
	for i, ds := range datasets {
		ref := segRef{key: job.key, ds: ds}
		if m.cfg.ShareSegments {
			if owner, ok := m.segIndex[ref]; ok && owner != mf.combo {
				if ownerFile, live := m.files[owner]; live {
					seg, ok := ownerFile.entries[job.key][ds]
					if ok && seg.sharedFrom == "" {
						segs[ds] = segment{run: seg.run, sharedFrom: owner}
						m.SegmentsShared++
						continue
					}
				}
			}
		}
		objs, err := job.readers[i](ctx)
		if err != nil {
			return fmt.Errorf("merge read %v ds %d: %w", job.key, ds, err)
		}
		run, err := mf.file.AppendObjectsCtx(ctx, objs)
		if err != nil {
			return fmt.Errorf("merge write %v ds %d: %w", job.key, ds, err)
		}
		segs[ds] = segment{run: run}
		m.segmentsWritten++
		if _, taken := m.segIndex[ref]; !taken {
			m.segIndex[ref] = mf.combo
		}
	}
	mf.entries[job.key] = segs
	m.PartitionsMerged++
	return nil
}

// ReadSegmentCtx reads the objects of one dataset for one merged partition,
// following a shared-segment reference when present; the underlying run read
// aborts at the page boundary where the context expired.
func (m *Merger) ReadSegmentCtx(ctx context.Context, mf *MergeFile, key octree.Key, ds object.DatasetID) ([]object.Object, error) {
	segs, ok := mf.entries[key]
	if !ok {
		return nil, fmt.Errorf("merge file %s has no entry %v", mf.combo, key)
	}
	seg, ok := segs[ds]
	if !ok {
		return nil, fmt.Errorf("merge file %s entry %v has no dataset %d", mf.combo, key, ds)
	}
	m.touch(mf)
	m.accMu.Lock()
	m.segmentsRead++
	m.accMu.Unlock()
	file := mf.file
	if seg.sharedFrom != "" {
		owner, live := m.files[seg.sharedFrom]
		if !live {
			return nil, fmt.Errorf("merge file %s entry %v: shared owner %s evicted",
				mf.combo, key, seg.sharedFrom)
		}
		m.touch(owner)
		file = owner.file
	}
	return file.ReadRunCtx(ctx, seg.run)
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
		if err := victim.file.Delete(); err != nil {
			return evicted, fmt.Errorf("evict %s: %w", victim.combo, err)
		}
		delete(m.files, victim.combo)
		m.dropReferencesTo(victim.combo)
		evicted = append(evicted, victim.combo)
		m.Evictions++
	}
	return evicted, nil
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
		for key, segs := range f.entries {
			for _, seg := range segs {
				if seg.sharedFrom == owner {
					delete(f.entries, key)
					break
				}
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
