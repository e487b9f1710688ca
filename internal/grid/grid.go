// Package grid implements the paper's static uniform-grid baseline: the
// indexed space is partitioned into a fixed number of cells up front.
// Objects are assigned to cells in memory and flushed to disk when the
// memory buffer fills, so a cell's storage fragments into multiple runs
// under memory pressure — exactly the behaviour the paper describes for its
// own Grid implementation. Replication is avoided with the query-window
// extension technique, like Space Odyssey.
package grid

import (
	"context"
	"fmt"

	"spaceodyssey/internal/geom"
	"spaceodyssey/internal/object"
	"spaceodyssey/internal/pagefile"
	"spaceodyssey/internal/rawfile"
	"spaceodyssey/internal/simdisk"
)

// Config tunes the grid.
type Config struct {
	// CellsPerDim is the grid resolution per dimension; the paper uses 60
	// (60^3 cells), determined by a parameter sweep. Experiments at reduced
	// dataset scale use a proportionally reduced resolution.
	CellsPerDim int
	// MemBudgetObjects caps how many objects are buffered in memory during
	// the build before a flush (models the 1 GB memory limit). Default:
	// unlimited (single flush).
	MemBudgetObjects int
	// Replicate switches off the query-window extension and instead stores
	// an object in every cell its box overlaps, deduplicating results at
	// query time. The paper rejects this design for its storage blow-up and
	// duplicate work; the ablation bench quantifies that choice.
	Replicate bool
}

// DefaultConfig returns the paper's configuration.
func DefaultConfig() Config {
	return Config{CellsPerDim: 60}
}

// check validates the configuration against the bounds it will grid and
// fills in the defaults.
func (c Config) check(bounds geom.Box) (Config, error) {
	if c.CellsPerDim == 0 {
		c.CellsPerDim = 60
	}
	if c.CellsPerDim < 1 {
		return c, fmt.Errorf("grid: CellsPerDim %d < 1", c.CellsPerDim)
	}
	if bounds.Volume() <= 0 {
		return c, fmt.Errorf("grid: bounds %v has no volume", bounds)
	}
	return c, nil
}

// Index is a uniform grid over one or more datasets.
type Index struct {
	cfg  Config
	grid geom.CellGrid // of the indexed bounds, CellsPerDim a side
	raws []*rawfile.Raw
	file *pagefile.File

	cells     [][]pagefile.Run // per-cell runs, len k^3
	counts    []int
	maxExtent geom.Vec
	built     bool
	total     int
}

// NewIndex creates an unbuilt grid over the given raw files (one for the
// one-for-each strategy, all of them for all-in-one).
func NewIndex(dev simdisk.Storage, raws []*rawfile.Raw, bounds geom.Box, cfg Config) (*Index, error) {
	cfg, err := cfg.check(bounds)
	if err != nil {
		return nil, err
	}
	name := "grid"
	if len(raws) == 1 {
		name = raws[0].Name() + ".grid"
	}
	k := cfg.CellsPerDim
	return &Index{
		cfg:    cfg,
		grid:   bounds.Grid(k),
		raws:   raws,
		file:   pagefile.Create(dev, name),
		cells:  make([][]pagefile.Run, k*k*k),
		counts: make([]int, k*k*k),
	}, nil
}

// Built reports whether Build has completed.
func (g *Index) Built() bool { return g.built }

// NumObjects returns the number of indexed objects.
func (g *Index) NumObjects() int { return g.total }

// MaxExtent returns the per-dimension maximum object half-extent.
func (g *Index) MaxExtent() geom.Vec { return g.maxExtent }

// Build scans every raw file, assigns objects to cells by center, and
// flushes cell buffers to disk whenever the memory budget is exceeded.
func (g *Index) Build() error {
	if g.built {
		return nil
	}
	k := g.cfg.CellsPerDim
	buffers := make([][]object.Object, k*k*k)
	buffered := 0
	flush := func() error {
		for ci, objs := range buffers {
			if len(objs) == 0 {
				continue
			}
			run, err := g.file.AppendObjectsCtx(context.Background(), objs)
			if err != nil {
				return err
			}
			g.cells[ci] = append(g.cells[ci], run)
			g.counts[ci] += len(objs)
			buffers[ci] = nil
		}
		buffered = 0
		return nil
	}
	var cells []int // of one object, reused
	for _, raw := range g.raws {
		err := raw.ScanCtx(context.Background(), func(o object.Object) error {
			cells = g.appendCellsOf(cells[:0], &o)
			for _, ci := range cells {
				buffers[ci] = append(buffers[ci], o)
				buffered++
			}
			g.maxExtent = g.maxExtent.Max(o.HalfExtent)
			g.total++
			if g.cfg.MemBudgetObjects > 0 && buffered >= g.cfg.MemBudgetObjects {
				return flush()
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("grid build: %w", err)
		}
	}
	if err := flush(); err != nil {
		return fmt.Errorf("grid build flush: %w", err)
	}
	g.built = true
	return nil
}

// appendCellsOf appends the cell indexes an object is assigned to: the cell
// of its center under the query-window-extension scheme, or every overlapping
// cell under replication.
func (g *Index) appendCellsOf(dst []int, o *object.Object) []int {
	if !g.cfg.Replicate {
		return append(dst, g.grid.Index(o.Center))
	}
	k := g.cfg.CellsPerDim
	b := o.Box()
	loX, loY, loZ := g.grid.Cell(b.Min)
	hiX, hiY, hiZ := g.grid.Cell(b.Max)
	for z := loZ; z <= hiZ; z++ {
		for y := loY; y <= hiY; y++ {
			for x := loX; x <= hiX; x++ {
				dst = append(dst, (z*k+y)*k+x)
			}
		}
	}
	return dst
}

// Query returns all indexed objects intersecting q, optionally restricted to
// the datasets in filter (nil means no filtering). Under the query-window
// extension the window is widened by the max object extent; under
// replication cells are read as-is and duplicates are removed.
func (g *Index) Query(q geom.Box, filter map[object.DatasetID]bool) ([]object.Object, error) {
	if !g.built {
		return nil, fmt.Errorf("grid: query before build")
	}
	k := g.cfg.CellsPerDim
	ext := q
	if !g.cfg.Replicate {
		ext = q.Expand(g.maxExtent)
	}
	loX, loY, loZ := g.grid.Cell(ext.Min)
	hiX, hiY, hiZ := g.grid.Cell(ext.Max)
	var seen map[objKey]bool
	if g.cfg.Replicate {
		seen = make(map[objKey]bool)
	}
	var out []object.Object
	cell := pagefile.GetObjSlice() // every cell decodes into it; matches are copied out
	defer pagefile.PutObjSlice(cell)
	for z := loZ; z <= hiZ; z++ {
		for y := loY; y <= hiY; y++ {
			for x := loX; x <= hiX; x++ {
				ci := (z*k+y)*k + x
				objs, err := g.file.ReadRunsIntoCtx(context.Background(), (*cell)[:0], g.cells[ci])
				if err != nil {
					return nil, err
				}
				*cell = objs
				for _, o := range objs {
					if !o.Intersects(q) {
						continue
					}
					if filter != nil && !filter[o.Dataset] {
						continue
					}
					if seen != nil {
						key := objKey{o.Dataset, o.ID}
						if seen[key] {
							continue
						}
						seen[key] = true
					}
					out = append(out, o)
				}
			}
		}
	}
	return out, nil
}

// objKey identifies an object for replication dedup.
type objKey struct {
	ds object.DatasetID
	id uint64
}

// CellRuns returns the number of storage runs of the cell holding p; tests
// use it to observe flush fragmentation.
func (g *Index) CellRuns(p geom.Vec) int {
	return len(g.cells[g.grid.Index(p)])
}
