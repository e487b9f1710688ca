// Package octree implements the paper's incremental space-oriented index:
// one adaptive octree per dataset, built lazily as queries arrive.
//
// The tree starts unbuilt. The first query triggers the level-0 in-situ
// scan that partitions the raw file into ppl uniform cells. Each subsequent
// query refines — by exactly one level per query, as in the paper — every
// hit partition whose volume exceeds RefinementThreshold times the query
// volume. Refinement rewrites the partition in place, reusing its pages and
// appending overflow at end of file (§3.1.2).
//
// All trees over the same exploration volume share cell geometry: a
// partition is globally identified by its (level, cell) key, which is what
// lets the Merger combine equally-refined partitions of different datasets.
package octree

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"spaceodyssey/internal/geom"
	"spaceodyssey/internal/object"
	"spaceodyssey/internal/pagefile"
	"spaceodyssey/internal/rawfile"
	"spaceodyssey/internal/simdisk"
)

// Config holds the tuning parameters of the incremental index.
type Config struct {
	// RefinementThreshold is rt: a partition hit by a query is refined when
	// partitionVolume/queryVolume > rt. Paper default: 4.
	RefinementThreshold float64
	// PartitionsPerLevel is ppl, the fanout of one refinement step. It must
	// be a perfect cube (k^3); the paper uses 64 (= 4^3) for faster
	// convergence than the canonical octree's 8.
	PartitionsPerLevel int
	// MaxDepth bounds refinement as a safety net. Default 16.
	MaxDepth int
}

// DefaultConfig returns the paper's configuration (rt=4, ppl=64).
func DefaultConfig() Config {
	return Config{RefinementThreshold: 4, PartitionsPerLevel: 64, MaxDepth: 16}
}

// withDefaults fills zero fields and validates ppl.
func (c Config) withDefaults() (Config, int, error) {
	if c.RefinementThreshold <= 0 {
		c.RefinementThreshold = 4
	}
	if c.PartitionsPerLevel == 0 {
		c.PartitionsPerLevel = 64
	}
	if c.MaxDepth <= 0 {
		c.MaxDepth = 16
	}
	k := int(math.Round(math.Cbrt(float64(c.PartitionsPerLevel))))
	if k < 2 || k*k*k != c.PartitionsPerLevel {
		return c, 0, fmt.Errorf("octree: ppl=%d is not a cube k^3 with k >= 2",
			c.PartitionsPerLevel)
	}
	return c, k, nil
}

// Key globally identifies a partition: the cell (X, Y, Z) of the uniform
// k^Level × k^Level × k^Level grid over the exploration volume. Trees that
// share bounds and ppl produce identical keys for identical regions.
//
// The level is as wide as a coordinate so that the key is 16 bytes with no
// padding: maps keyed on it (or on a struct of it and a 4-byte id) hash it as
// one block of memory instead of field by field.
type Key struct {
	Level   uint32
	X, Y, Z uint32
}

// Child returns the key of the child cell (cx, cy, cz) one level down.
func (k Key) Child(fanoutPerDim, cx, cy, cz int) Key {
	return Key{
		Level: k.Level + 1,
		X:     k.X*uint32(fanoutPerDim) + uint32(cx),
		Y:     k.Y*uint32(fanoutPerDim) + uint32(cy),
		Z:     k.Z*uint32(fanoutPerDim) + uint32(cz),
	}
}

// Ancestor returns k's ancestor cell at the given (shallower or equal)
// level. It panics if level exceeds k's.
func (k Key) Ancestor(level uint32, fanoutPerDim int) Key {
	if level > k.Level {
		panic(fmt.Sprintf("octree: ancestor level %d below key level %d", level, k.Level))
	}
	div := uint32(pow(fanoutPerDim, int(k.Level-level)))
	return Key{Level: level, X: k.X / div, Y: k.Y / div, Z: k.Z / div}
}

// AncestorOf reports whether k's cell contains other's cell (equality
// included).
func (k Key) AncestorOf(other Key, fanoutPerDim int) bool {
	if k.Level > other.Level {
		return false
	}
	return other.Ancestor(k.Level, fanoutPerDim) == k
}

// Box returns k's cell as a spatial box within bounds, for trees of the
// given per-dimension fanout. It is the region metadata consumers of
// partition reads key spatial decisions on: the engine's result cache uses
// it for containment answering (a query window inside the box is fully
// answerable from the cell's content), the merger for diagnostics. Keys of
// live partitions satisfy p.Box() == p.Key().Box(bounds, fanout).
func (k Key) Box(bounds geom.Box, fanoutPerDim int) geom.Box {
	cellsPerDim := 1
	for i := uint32(0); i < k.Level; i++ {
		cellsPerDim *= fanoutPerDim
	}
	size := bounds.Size().Div(float64(cellsPerDim))
	min := bounds.Min.Add(geom.Vec{
		X: size.X * float64(k.X),
		Y: size.Y * float64(k.Y),
		Z: size.Z * float64(k.Z),
	})
	return geom.NewBox(min, min.Add(size))
}

// CellAt is Box's inverse: the key of the cell of the uniform
// fanout^level grid over bounds that contains point p, false when p lies
// outside bounds or the level's grid exceeds the key coordinate space. The
// bounds' far wall belongs to the last cell.
func CellAt(bounds geom.Box, fanoutPerDim int, level uint32, p geom.Vec) (Key, bool) {
	if !bounds.ContainsPoint(p) {
		return Key{}, false
	}
	cells := math.Pow(float64(fanoutPerDim), float64(level))
	if cells > float64(math.MaxUint32) {
		return Key{}, false
	}
	size := bounds.Size()
	idx := func(lo, sz, v float64) uint32 {
		i := int64((v - lo) / sz * cells)
		if i < 0 {
			i = 0
		}
		if i >= int64(cells) {
			i = int64(cells) - 1
		}
		return uint32(i)
	}
	return Key{
		Level: level,
		X:     idx(bounds.Min.X, size.X, p.X),
		Y:     idx(bounds.Min.Y, size.Y, p.Y),
		Z:     idx(bounds.Min.Z, size.Z, p.Z),
	}, true
}

// Partition is a leaf of the tree: a spatial cell plus the disk runs holding
// the objects whose centers fall inside it.
type Partition struct {
	key      Key
	box      geom.Box
	runs     []pagefile.Run
	count    int
	children []Partition // non-nil once refined (then no longer a leaf)
}

// Key returns the partition's global cell key.
func (p *Partition) Key() Key { return p.key }

// Box returns the partition's cell box.
func (p *Partition) Box() geom.Box { return p.box }

// Count returns the number of objects stored in the partition.
func (p *Partition) Count() int { return p.count }

// Runs returns the disk runs holding the partition (for inspection).
func (p *Partition) Runs() []pagefile.Run { return p.runs }

// IsLeaf reports whether the partition has not been refined.
func (p *Partition) IsLeaf() bool { return p.children == nil }

// Pages returns the partition's size on disk in pages.
func (p *Partition) Pages() int64 { return pagefile.Pages(p.runs) }

// Tree is the incremental octree over one dataset.
type Tree struct {
	cfg    Config
	k      int // fanout per dimension (ppl = k^3)
	bounds geom.Box
	raw    *rawfile.Raw
	file   *pagefile.File
	root   *Partition

	built      atomic.Bool // see Built
	maxExtent  geom.Vec    // per-dimension max object half-extent (query-window extension)
	numObjects int
	numLeaves  int

	// Scratch of split, which runs under the caller's write lock: the runs
	// the children are written to before they move to one allocation, and
	// the parent's pages handed to one child for reuse.
	written, reuse []pagefile.Run

	// ShareReader, when non-nil, intercepts leaf-partition reads on the
	// query path (the walk's non-refining reads): it is called with the
	// partition and a read function performing the actual I/O, and may serve
	// the objects from an attached in-flight scan or a result cache instead.
	// The partition carries the region metadata such interceptors key on —
	// its cell Key and spatial Box — and its content is immutable for the
	// duration of the caller's shared tree lock. read returns a slice of
	// exactly the partition's size, freshly allocated and never pooled, so the
	// interceptor may retain it; the slice it returns in turn must be treated
	// as read-only — it may be shared with concurrent queries. Set once
	// before queries run.
	ShareReader func(ctx context.Context, p *Partition, read func(context.Context) ([]object.Object, error)) ([]object.Object, error)

	// RefineSource, when non-nil, is asked for a leaf's objects before a
	// refinement — inline or background — reads them from the device. It
	// returns the partition's objects in an order its k³ children bucket
	// (BucketByCell, a stable sort) exactly as they bucket its own file
	// order — that order, or one already bucketed by those children — so the
	// pages the children are written to are byte for byte those a device read
	// gives; false sends the refinement to the device. The slice is
	// read-only (a result cache shares it with its readers): the refinement
	// buckets it into scratch of its own and keeps no reference to it. Called
	// under the caller's tree write lock. Set once before queries run.
	RefineSource func(p *Partition) ([]object.Object, bool)

	// Refinements counts completed refinement operations (for stats).
	Refinements int
}

// New creates an unbuilt tree for raw over the shared exploration volume
// bounds. Storage pages are allocated on dev in a file named after the raw
// file, placed under the dataset's affinity group so tree and raw file
// co-locate on a device array. No I/O happens until the first query
// (EnsureBuiltCtx).
func New(dev simdisk.Storage, raw *rawfile.Raw, bounds geom.Box, cfg Config) (*Tree, error) {
	cfg, k, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if bounds.Volume() <= 0 {
		return nil, fmt.Errorf("octree: bounds %v has no volume", bounds)
	}
	return &Tree{
		cfg:    cfg,
		k:      k,
		bounds: bounds,
		raw:    raw,
		file:   pagefile.CreateInGroup(dev, raw.Name()+".octree", rawfile.GroupName(raw.Dataset())),
	}, nil
}

// Built reports whether the level-0 partitioning has run. Unlike the rest of
// the tree it may be asked without the caller's tree lock: a tree is never
// un-built, so a true answer is final, and what the build wrote is visible
// to a caller that takes the lock afterwards.
func (t *Tree) Built() bool { return t.built.Load() }

// Dataset returns the dataset id the tree indexes.
func (t *Tree) Dataset() object.DatasetID { return t.raw.Dataset() }

// MaxExtent returns the per-dimension maximum object half-extent, the
// amount by which queries must be extended (query-window extension).
func (t *Tree) MaxExtent() geom.Vec { return t.maxExtent }

// Bounds returns the exploration volume the tree partitions.
func (t *Tree) Bounds() geom.Box { return t.bounds }

// NumObjects returns the number of indexed objects (0 before build).
func (t *Tree) NumObjects() int { return t.numObjects }

// NumLeaves returns the number of leaf partitions (0 before build).
func (t *Tree) NumLeaves() int { return t.numLeaves }

// FanoutPerDim returns k where ppl = k^3.
func (t *Tree) FanoutPerDim() int { return t.k }

// EnsureBuiltCtx runs the level-0 partitioning if it has not happened yet:
// one full in-situ scan of the raw file, assigning every object to one of
// ppl uniform cells by its center, then writing each cell sequentially. This
// is the expensive first query of the paper's Figure 5. The context is
// observed only during the read phase (the in-situ scan, which dominates the cost):
// an abort there leaves the tree untouched and unbuilt — no partial
// partitioning can ever be observed. Once the scan has completed, the cell
// writes always run to completion, so the built state commits atomically.
func (t *Tree) EnsureBuiltCtx(ctx context.Context) error {
	if t.Built() {
		return nil
	}
	all, err := t.raw.AppendAllCtx(ctx, make([]object.Object, 0, t.raw.NumObjects()))
	if err != nil {
		return fmt.Errorf("octree level-0 scan: %w", err)
	}
	var maxExt geom.Vec
	for i := range all {
		maxExt = maxExt.Max(all[i].HalfExtent)
	}
	// The scan is the one dataset-sized slice the build holds: rather than
	// into a bucketed copy, it is sorted into a bucket order, through which
	// split gathers each cell as it writes it.
	ints := make([]int32, 2*len(all))
	pos, order := ints[:len(all)], ints[len(all):]
	bounds := bucketPositions(nil, pos, t.bounds, t.k, all)
	for i, j := range pos {
		order[j] = int32(i)
	}
	root := &Partition{key: Key{}, box: t.bounds}
	if err := t.split(ctx, root, all, order, bounds, nil); err != nil {
		return fmt.Errorf("octree level-0 write: %w", err)
	}
	t.root = root
	t.maxExtent = maxExt
	t.numObjects = len(all)
	t.numLeaves = len(root.children)
	t.built.Store(true)
	return nil
}

// split makes p, a leaf, internal: child ci holds bucket ci of objs, which
// is objs[bounds[ci]:bounds[ci+1]] or, given an order, the objects it lists
// there, gathered into scratch. Each bucket is written over the pages of
// free, in order, appending what does not fit (§3.1.2; free is nil for the
// level-0 build). The children are one allocation and their runs another,
// each child's a capped slice of it: a split allocates what the tree keeps
// and nothing per child. The writes always run to completion (the caller
// never observes a half-split partition), still charged to ctx's scope. The
// caller holds the tree's write lock; p is left unchanged when a write fails.
func (t *Tree) split(ctx context.Context, p *Partition, objs []object.Object, order, bounds []int32, free []pagefile.Run) error {
	var gathered []object.Object
	if order != nil {
		most := int32(0)
		for ci := range len(bounds) - 1 {
			most = max(most, bounds[ci+1]-bounds[ci])
		}
		gathered = make([]object.Object, most)
	}
	wctx := simdisk.Detach(ctx)
	alloc := runAllocator{free: free}
	written := t.written[:0]
	children := make([]Partition, len(bounds)-1)
	for ci := range children {
		cx, cy, cz := ci%t.k, ci/t.k%t.k, ci/(t.k*t.k)
		bucket := objs[bounds[ci]:bounds[ci+1]]
		if order != nil {
			bucket = gathered[:len(bucket)]
			for j, i := range order[bounds[ci]:bounds[ci+1]] {
				bucket[j] = objs[i]
			}
		}
		t.reuse = alloc.take(t.reuse[:0], object.PagesFor(len(bucket)))
		n := len(written)
		var err error
		if written, err = t.file.WriteIntoCtx(wctx, written, t.reuse, bucket); err != nil {
			t.written = written[:0]
			return err
		}
		children[ci] = Partition{
			key:   p.key.Child(t.k, cx, cy, cz),
			box:   p.box.Cell(t.k, cx, cy, cz),
			runs:  written[n:], // its length, until the runs move below
			count: len(bucket),
		}
	}
	t.written = written[:0]
	runs, start := slices.Clone(written), 0
	for ci := range children {
		c := &children[ci]
		end := start + len(c.runs)
		c.runs = nil
		if end > start {
			c.runs = runs[start:end:end]
		}
		start = end
	}
	p.children = children
	return nil
}

// BucketByCell groups objs by the cell of box's k×k×k subdivision that holds
// their center — the bucketing behind every refinement and the child
// grouping of a multi-page merge segment. It is a stable counting sort into
// slab (len(objs) long), so each bucket keeps objs' order and the pages
// written from it are byte for byte what per-bucket appends produced. The
// k³+1 bucket bounds are appended to dst and the extended dst returned:
// bucket ci is slab[b[ci]:b[ci+1]] of the appended b. A dst with room costs
// no allocation (int32: a bucketing never holds 2³¹ objects).
func BucketByCell(dst []int32, box geom.Box, k int, objs, slab []object.Object) []int32 {
	pp := int32Pool.Get().(*[]int32)
	pos := slices.Grow((*pp)[:0], len(objs))[:len(objs)]
	dst = bucketPositions(dst, pos, box, k, objs)
	// Placing reads objs in order and writes k³ sequential streams, which a
	// busy host's caches serve better than the k³ sparse passes over objs
	// that gathering through the bucket order makes.
	for i, j := range pos {
		slab[j] = objs[i]
	}
	putInt32s(pp, pos, len(objs))
	return dst
}

// bucketPositions is the one bucketing: a stable counting sort of objs by the
// cell of box's k×k×k subdivision holding their center. It writes to pos
// (len(objs) long) the index each object takes in bucket order, and appends
// the k³+1 bucket bounds to dst as BucketByCell does: bucket ci takes indices
// b[ci] to b[ci+1].
func bucketPositions(dst, pos []int32, box geom.Box, k int, objs []object.Object) []int32 {
	// Counts go in two slots up, so that after the prefix sum b[ci+1] is
	// bucket ci's start; placing advances it to the bucket's end, which is
	// bucket ci+1's start — leaving b[ci] the start of every bucket and
	// b[k³] the total, with no second cursor array. The spare slot stays in
	// dst's capacity, for the next append to overwrite.
	n := len(dst)
	dst = slices.Grow(dst, k*k*k+2)
	b := dst[n : n+k*k*k+2]
	clear(b)
	// Each object's cell is worked out once, into pos, which placing turns
	// into the object's position.
	grid := box.Grid(k)
	for i := range objs {
		ci := grid.Index(objs[i].Center)
		pos[i] = int32(ci)
		b[ci+2]++
	}
	for j := 1; j < len(b); j++ {
		b[j] += b[j-1]
	}
	for i, ci := range pos {
		pos[i] = b[ci+1]
		b[ci+1]++
	}
	return dst[:n+k*k*k+1]
}

// int32Pool recycles the per-object scratch of bucketing and the bounds of a
// refinement — int32, since the k³ cells and a bucketing's objects are far
// below 2³¹ — so that a refinement allocates only what the tree keeps.
var int32Pool = sync.Pool{New: func() any { return new([]int32) }}

// putInt32s hands s, grown from *p for a bucketing of n objects, back to
// int32Pool. Retention follows the object pools' bound
// (pagefile.MaxPooledObjs).
func putInt32s(p *[]int32, s []int32, n int) {
	if n <= pagefile.MaxPooledObjs {
		*p = s[:0]
	}
	int32Pool.Put(p)
}

// Lookup returns the leaf partitions intersecting area, in child order
// (ascending z, y, x at every level). The caller is responsible for
// extending the query window by MaxExtent first when the goal is retrieving
// all intersecting objects. Lookup never performs I/O.
func (t *Tree) Lookup(area geom.Box) []*Partition {
	if !t.Built() {
		return nil
	}
	return t.appendLeaves(nil, t.root, area)
}

// appendLeaves appends the leaves under p that intersect area to dst. Below
// an internal node it descends only into the children that can: on each axis
// the first and last child whose stored interval meets area's (closed, as in
// Box.Intersects), found from the node's two ends. Children with equal index
// on an axis share its interval — geom.Box.Subdivide cuts every axis on its
// own — so the k children along each axis from the first stand for their
// slabs, and the product of the three spans is exactly the set of children a
// walk box-testing all k^3 would enter, in the same (z, y, x) order. Nothing
// is computed: no division rounds a window face into the wrong cell.
func (t *Tree) appendLeaves(dst []*Partition, p *Partition, area geom.Box) []*Partition {
	if !p.box.Intersects(area) {
		return dst
	}
	if p.IsLeaf() {
		return append(dst, p)
	}
	k, c := t.k, p.children
	x0, x1 := 0, k-1
	for x0 < k && c[x0].box.Max.X < area.Min.X {
		x0++
	}
	for x1 >= x0 && c[x1].box.Min.X > area.Max.X {
		x1--
	}
	y0, y1 := 0, k-1
	for y0 < k && c[y0*k].box.Max.Y < area.Min.Y {
		y0++
	}
	for y1 >= y0 && c[y1*k].box.Min.Y > area.Max.Y {
		y1--
	}
	z0, z1 := 0, k-1
	for z0 < k && c[z0*k*k].box.Max.Z < area.Min.Z {
		z0++
	}
	for z1 >= z0 && c[z1*k*k].box.Min.Z > area.Max.Z {
		z1--
	}
	for z := z0; z <= z1; z++ {
		for y := y0; y <= y1; y++ {
			row := (z*k + y) * k
			for x := x0; x <= x1; x++ {
				dst = t.appendLeaves(dst, &c[row+x], area)
			}
		}
	}
	return dst
}

// descend follows key's path from the root and returns the deepest partition
// on it: the one at key's own level, or the leaf above it where the tree is
// coarser than the key. The tree must be built.
func (t *Tree) descend(key Key) *Partition {
	p := t.root
	for lvl := uint32(0); lvl < key.Level && !p.IsLeaf(); lvl++ {
		div := pow(t.k, int(key.Level-lvl-1))
		cx := int(key.X) / div % t.k
		cy := int(key.Y) / div % t.k
		cz := int(key.Z) / div % t.k
		p = &p.children[(cz*t.k+cy)*t.k+cx]
	}
	return p
}

// LeafAt returns the leaf partition with exactly the given key, or nil if
// that cell is unbuilt, internal, or refined past the key's level. The
// Merger uses it to enforce the same-refinement-level rule.
func (t *Tree) LeafAt(key Key) *Partition {
	if !t.Built() || key.Level == 0 {
		return nil
	}
	if p := t.descend(key); p.IsLeaf() && p.key == key {
		return p
	}
	return nil // coarser here than the key, or refined past it
}

// ReadPartitionIntoCtx reads every object stored in p from disk and appends
// them to dst, grown once to fit: a nil dst costs one allocation of exactly
// the partition's size (the read to keep), pooled scratch with room costs
// none (the read only the caller sees). A failed read returns a *ReadError
// naming p.
func (t *Tree) ReadPartitionIntoCtx(ctx context.Context, dst []object.Object, p *Partition) ([]object.Object, error) {
	objs, err := t.file.ReadRunsIntoCtx(ctx, slices.Grow(dst, p.count), p.runs)
	if err != nil {
		err = &ReadError{Dataset: t.Dataset(), Partition: p, runs: p.runs, Err: err}
	}
	return objs, err
}

// ReadError is a failed read of one partition's pages: every error a
// partition read returns is one, wrapping the storage error.
type ReadError struct {
	Dataset   object.DatasetID
	Partition *Partition
	runs      []pagefile.Run // the pages the read failed on
	Err       error
}

func (e *ReadError) Error() string {
	k := e.Partition.key
	return fmt.Sprintf("octree ds %d partition %d/%d.%d.%d: %v", e.Dataset, k.Level, k.X, k.Y, k.Z, e.Err)
}

func (e *ReadError) Unwrap() error { return e.Err }

// Rederive rebuilds the partition whose read failed with e from the raw
// file, for pages that can never be read again. One raw scan keeps, in file
// order, the objects the tree's own bucketing assigns to the partition — the
// BucketByCell grid index within every box on its path from the root — and
// writes them to fresh pages at the end of the tree file. Every bucketing is
// a stable counting sort of raw-file order, so the partition holds exactly
// what it held, in the same order. It reports false, doing nothing, when the
// partition is no longer stored where e's read failed (refined or
// re-derived since). Only the scan observes ctx; once it has completed, the
// write always does. The caller holds the tree's write lock.
func (t *Tree) Rederive(ctx context.Context, e *ReadError) (bool, error) {
	p := e.Partition
	if !p.IsLeaf() || !slices.Equal(p.runs, e.runs) {
		return false, nil
	}
	type step struct {
		grid geom.CellGrid
		ci   int
	}
	var path []step
	n, k := t.root, uint32(t.k)
	for lvl := uint32(1); lvl <= p.key.Level && !n.IsLeaf(); lvl++ {
		a := p.key.Ancestor(lvl, t.k)
		ci := int((a.Z%k*k+a.Y%k)*k + a.X%k)
		path = append(path, step{grid: n.box.Grid(t.k), ci: ci})
		n = &n.children[ci]
	}
	sp := pagefile.GetObjSlice()
	defer pagefile.PutObjSlice(sp)
	objs := (*sp)[:0]
	err := t.raw.ScanCtx(ctx, func(o object.Object) error {
		for i := range path {
			if path[i].grid.Index(o.Center) != path[i].ci {
				return nil
			}
		}
		objs = append(objs, o)
		return nil
	})
	*sp = objs
	if err != nil {
		return false, fmt.Errorf("octree re-derive scan: %w", err)
	}
	if len(objs) != p.count {
		return false, fmt.Errorf("octree: re-derived %d objects for partition %v, which held %d", len(objs), p.key, p.count)
	}
	run, err := t.file.AppendObjectsCtx(simdisk.Detach(ctx), objs)
	if err != nil {
		return false, fmt.Errorf("octree re-derive write: %w", err)
	}
	p.runs = []pagefile.Run{run}
	return true, nil
}

// File exposes the partition storage file (merge copies read through it).
func (t *Tree) File() *pagefile.File { return t.file }

// pow returns base**exp for small non-negative integers.
func pow(base, exp int) int {
	r := 1
	for i := 0; i < exp; i++ {
		r *= base
	}
	return r
}
