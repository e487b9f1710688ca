package flat

import (
	"context"
	"fmt"
	"sort"

	"spaceodyssey/internal/geom"
	"spaceodyssey/internal/object"
	"spaceodyssey/internal/rtree"
	"spaceodyssey/internal/simdisk"
)

// Config tunes a FLAT index.
type Config struct {
	// LeafCapacity is the number of objects per dense leaf page (default:
	// a full object page).
	LeafCapacity int
	// MaxNeighbors caps the adjacency degree per leaf (default 24; records
	// store 4-byte ids, so even dense graphs pack tens of records per
	// adjacency page). The STR chain links are always present, keeping the
	// graph connected.
	MaxNeighbors int
	// SortPasses is the external-sort charge of the STR packing (default 6
	// — run formation plus merge per dimension, as for the R-tree
	// baseline).
	SortPasses int
	// SeedFanout is the fanout of the seed index (default 64).
	SeedFanout int
	// Paranoid enables a completeness check after the crawl: any leaf that
	// intersects the query but was not reached through neighbor links is
	// read anyway and counted in CrawlMisses. Enabled by default so results
	// are exact even on adversarial data; misses are rare and cheap.
	Paranoid *bool
}

// DefaultConfig returns the standard FLAT configuration.
func DefaultConfig() Config {
	t := true
	return Config{
		LeafCapacity: object.PageCapacity, MaxNeighbors: 24, SortPasses: 6,
		SeedFanout: 64, Paranoid: &t,
	}
}

func (c Config) withDefaults() (Config, error) {
	if c.LeafCapacity == 0 {
		c.LeafCapacity = object.PageCapacity
	}
	if c.LeafCapacity < 1 || c.LeafCapacity > object.PageCapacity {
		return c, fmt.Errorf("flat: leaf capacity %d outside [1,%d]",
			c.LeafCapacity, object.PageCapacity)
	}
	if c.MaxNeighbors == 0 {
		c.MaxNeighbors = 24
	}
	if c.MaxNeighbors < 2 {
		return c, fmt.Errorf("flat: MaxNeighbors %d < 2 (chain links required)", c.MaxNeighbors)
	}
	if c.SortPasses < 0 {
		return c, fmt.Errorf("flat: negative sort passes")
	}
	if c.SeedFanout == 0 {
		c.SeedFanout = 64
	}
	if c.Paranoid == nil {
		t := true
		c.Paranoid = &t
	}
	return c, nil
}

// leafMeta is the in-memory descriptor of one dense leaf page.
type leafMeta struct {
	box  geom.Box
	page int64
}

// Index is one FLAT index over a set of objects.
type Index struct {
	cfg    Config
	dev    simdisk.Storage
	file   simdisk.FileID // dense leaf pages
	leaves []leafMeta
	adj    *adjacencyStore
	seed   *rtree.Tree
	slack  float64

	// CrawlMisses counts intersecting leaves the paranoid check had to
	// rescue; a high number would indicate the neighbor graph is too sparse.
	CrawlMisses int
}

// BuildIndex constructs a FLAT index over objs (reordered in place): STR
// sort (charged), dense leaf pages, neighborhood graph, seed index.
func BuildIndex(dev simdisk.Storage, name string, objs []object.Object, cfg Config) (*Index, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if err := rtree.ChargeExternalSort(dev, object.PagesFor(len(objs)), cfg.SortPasses); err != nil {
		return nil, err
	}
	idx := &Index{cfg: cfg, dev: dev, file: dev.CreateFileInGroup(name+".leaves", "")}

	// Dense leaf pages in STR order.
	packed := rtree.STRPack(objs, cfg.LeafCapacity)
	for _, leaf := range packed {
		page, err := object.EncodePage(leaf)
		if err != nil {
			return nil, err
		}
		p, err := dev.AppendPageCtx(context.Background(), idx.file, page)
		if err != nil {
			return nil, err
		}
		mbr := leaf[0].Box()
		for _, o := range leaf[1:] {
			mbr = mbr.Union(o.Box())
		}
		idx.leaves = append(idx.leaves, leafMeta{box: mbr, page: p})
	}

	// Mean leaf diagonal sizes the adjacency neighborhood.
	if n := len(idx.leaves); n > 0 {
		var sum float64
		for _, l := range idx.leaves {
			sum += l.box.Size().Len()
		}
		idx.slack = sum / float64(n)
	}

	// Neighborhood graph: MBR-overlapping leaves plus the STR chain.
	lists := idx.computeNeighbors()
	adj, err := buildAdjacency(dev, name+".adj", lists)
	if err != nil {
		return nil, err
	}
	idx.adj = adj

	// Seed index: a small STR tree over the leaf MBRs. Leaf i is encoded as
	// a synthetic object with ID i. Tiny, so no sort charge.
	seedObjs := make([]object.Object, len(idx.leaves))
	for i, l := range idx.leaves {
		seedObjs[i] = object.Object{
			ID:         uint64(i),
			Center:     l.box.Center(),
			HalfExtent: l.box.HalfExtent(),
		}
	}
	seed, err := rtree.Build(dev, name+".seed", seedObjs, rtree.Config{
		Fanout: cfg.SeedFanout, SortPasses: 0,
	})
	if err != nil {
		return nil, err
	}
	idx.seed = seed
	return idx, nil
}

// computeNeighbors builds the per-leaf neighbor lists with a spatial hash.
func (idx *Index) computeNeighbors() [][]uint32 {
	n := len(idx.leaves)
	lists := make([][]uint32, n)
	if n == 0 {
		return lists
	}
	// Hash leaf centers on a grid sized to the mean leaf extent.
	bounds := idx.leaves[0].box
	for _, l := range idx.leaves[1:] {
		bounds = bounds.Union(l.box)
	}
	cell := idx.slack
	if cell <= 0 {
		cell = bounds.LongestSide() + 1
	}
	k := int(bounds.LongestSide()/cell) + 1
	if k > 128 {
		k = 128
	}
	if k < 1 {
		k = 1
	}
	hash := make(map[[3]int][]int)
	grid := bounds.Grid(k)
	cellOf := func(p geom.Vec) [3]int {
		ix, iy, iz := grid.Cell(p)
		return [3]int{ix, iy, iz}
	}
	for i, l := range idx.leaves {
		c := cellOf(l.box.Center())
		hash[c] = append(hash[c], i)
	}
	for i, l := range idx.leaves {
		c := cellOf(l.box.Center())
		var cands []int
		for dx := -1; dx <= 1; dx++ {
			for dy := -1; dy <= 1; dy++ {
				for dz := -1; dz <= 1; dz++ {
					cands = append(cands, hash[[3]int{c[0] + dx, c[1] + dy, c[2] + dz}]...)
				}
			}
		}
		type scored struct {
			id   int
			dist float64
		}
		var near []scored
		for _, j := range cands {
			if j == i {
				continue
			}
			d := l.box.Dist(idx.leaves[j].box)
			if d <= idx.slack {
				near = append(near, scored{j, d})
			}
		}
		sort.Slice(near, func(a, b int) bool { return near[a].dist < near[b].dist })
		// Chain links first (they guarantee a connected graph), then every
		// MBR-overlapping leaf (the crawl's completeness depends on them;
		// ids are 4 bytes so large overlap sets stay cheap), then the
		// nearest disjoint leaves up to MaxNeighbors.
		list := make([]uint32, 0, idx.cfg.MaxNeighbors)
		seen := make(map[uint32]bool, idx.cfg.MaxNeighbors)
		addUnique := func(j int) {
			if !seen[uint32(j)] {
				seen[uint32(j)] = true
				list = append(list, uint32(j))
			}
		}
		if i > 0 {
			addUnique(i - 1)
		}
		if i < n-1 {
			addUnique(i + 1)
		}
		// maxDegree bounds the record size (~260 B, 15 records per page) so
		// crawling nearby leaves stays cheap; overlap neighbors beyond the
		// cap are rescued by the paranoid completion at no extra read cost.
		const maxDegree = 64
		for _, s := range near {
			if s.dist > 0 || len(list) >= maxDegree {
				break
			}
			addUnique(s.id)
		}
		for _, s := range near {
			if len(list) >= idx.cfg.MaxNeighbors {
				break
			}
			addUnique(s.id)
		}
		lists[i] = list
	}
	return lists
}

// Query returns every object intersecting q, restricted to filter when
// non-nil. It runs FLAT's seed phase then crawls the neighbor graph.
func (idx *Index) Query(q geom.Box, filter map[object.DatasetID]bool) ([]object.Object, error) {
	if len(idx.leaves) == 0 {
		return nil, nil
	}
	// Seed phase: cheap first-hit probe of the seed index. The seed tree
	// indexes every leaf MBR, so a miss proves the result is empty.
	seedObj, found, err := idx.seed.FirstHit(q)
	if err != nil {
		return nil, err
	}
	if !found {
		return nil, nil
	}
	// Crawl phase: flood over the neighbor graph starting from the seed
	// (which intersects q by construction). Neighbor MBRs are stored
	// inline in the adjacency records, so discovery reads only adjacency
	// pages; the intersecting leaf pages themselves are then read in one
	// page-ordered pass. STR packing puts spatially adjacent leaves on
	// consecutive pages, so that pass is largely sequential — the dense
	// sequential retrieval that makes FLAT the fastest-querying baseline.
	visited := map[int]bool{int(seedObj.ID): true}
	frontier := []int{int(seedObj.ID)}
	var hits []int
	for len(frontier) > 0 {
		id := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		if !idx.leaves[id].box.Intersects(q) {
			continue
		}
		hits = append(hits, id)
		neighbors, err := idx.adj.neighbors(id)
		if err != nil {
			return nil, err
		}
		for _, nb := range neighbors {
			nid := int(nb)
			if !visited[nid] && idx.leaves[nid].box.Intersects(q) {
				visited[nid] = true
				frontier = append(frontier, nid)
			}
		}
	}

	// Paranoid completeness check against the in-memory leaf directory:
	// intersecting leaves unreachable through the neighbor graph are read
	// anyway (rare; counted so tests can watch graph quality).
	if *idx.cfg.Paranoid {
		for i, l := range idx.leaves {
			if !visited[i] && l.box.Intersects(q) {
				idx.CrawlMisses++
				hits = append(hits, i)
			}
		}
	}

	sort.Slice(hits, func(a, b int) bool {
		return idx.leaves[hits[a]].page < idx.leaves[hits[b]].page
	})
	var out []object.Object
	for _, id := range hits {
		objs, err := idx.readLeaf(id)
		if err != nil {
			return nil, err
		}
		out = appendFiltered(out, objs, q, filter)
	}
	return out, nil
}

// readLeaf reads and decodes one dense leaf page.
func (idx *Index) readLeaf(id int) ([]object.Object, error) {
	buf := make([]byte, simdisk.PageSize)
	if err := idx.dev.ReadPageCtx(context.Background(), idx.file, idx.leaves[id].page, buf); err != nil {
		return nil, err
	}
	return object.DecodePage(buf)
}

func appendFiltered(dst, objs []object.Object, q geom.Box, filter map[object.DatasetID]bool) []object.Object {
	for _, o := range objs {
		if !o.Intersects(q) {
			continue
		}
		if filter != nil && !filter[o.Dataset] {
			continue
		}
		dst = append(dst, o)
	}
	return dst
}
