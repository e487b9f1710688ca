package rtree

import (
	"context"
	"fmt"

	"spaceodyssey/internal/geom"
	"spaceodyssey/internal/object"
	"spaceodyssey/internal/simdisk"
)

// Config tunes the bulk load.
type Config struct {
	// Fanout is the number of entries per internal node (max MaxFanout).
	// Default 64.
	Fanout int
	// LeafCapacity is the number of objects per leaf page. Default: a full
	// object page.
	LeafCapacity int
	// SortPasses is how many external-sort write+read passes the build
	// charges. STR sorts the data once per dimension and an external sort
	// is run formation plus a merge pass, so the default is 6 (2 per
	// dimension). 0 disables the charge — used for tiny in-memory
	// directories like FLAT's seed index.
	SortPasses int
}

// DefaultConfig returns the standard STR configuration.
func DefaultConfig() Config {
	return Config{Fanout: 64, LeafCapacity: object.PageCapacity, SortPasses: 6}
}

func (c Config) withDefaults() (Config, error) {
	if c.Fanout == 0 {
		c.Fanout = 64
	}
	if c.Fanout < 2 || c.Fanout > MaxFanout {
		return c, fmt.Errorf("rtree: fanout %d outside [2,%d]", c.Fanout, MaxFanout)
	}
	if c.LeafCapacity == 0 {
		c.LeafCapacity = object.PageCapacity
	}
	if c.LeafCapacity < 1 || c.LeafCapacity > object.PageCapacity {
		return c, fmt.Errorf("rtree: leaf capacity %d outside [1,%d]",
			c.LeafCapacity, object.PageCapacity)
	}
	if c.SortPasses < 0 {
		return c, fmt.Errorf("rtree: negative sort passes %d", c.SortPasses)
	}
	return c, nil
}

// Tree is a bulk-loaded R-tree whose leaf and node pages live on the
// simulated disk.
type Tree struct {
	dev      simdisk.Storage
	file     simdisk.FileID
	rootPage int64
	numObjs  int
}

// Build bulk-loads a tree over objs (which it reorders in place). The
// caller has already paid for reading objs (e.g. raw-file scans); Build
// charges the external sort passes plus sequential writes of all leaf and
// node pages.
func Build(dev simdisk.Storage, name string, objs []object.Object, cfg Config) (*Tree, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if err := ChargeExternalSort(dev, object.PagesFor(len(objs)), cfg.SortPasses); err != nil {
		return nil, fmt.Errorf("rtree sort: %w", err)
	}

	t := &Tree{dev: dev, file: dev.CreateFileInGroup(name, ""), numObjs: len(objs)}
	if len(objs) == 0 {
		return t, nil
	}

	// Pack and write leaf pages in STR order.
	leaves := STRPack(objs, cfg.LeafCapacity)
	entries := make([]entry, 0, len(leaves))
	for _, leaf := range leaves {
		page, err := object.EncodePage(leaf)
		if err != nil {
			return nil, err
		}
		idx, err := dev.AppendPageCtx(context.Background(), t.file, page)
		if err != nil {
			return nil, err
		}
		mbr := leaf[0].Box()
		for _, o := range leaf[1:] {
			mbr = mbr.Union(o.Box())
		}
		entries = append(entries, entry{box: mbr, child: idx})
	}
	// Build node levels bottom-up until a single root remains.
	level := 0
	for len(entries) > 1 || level == 0 {
		next := make([]entry, 0, (len(entries)+cfg.Fanout-1)/cfg.Fanout)
		for off := 0; off < len(entries); off += cfg.Fanout {
			end := min(off+cfg.Fanout, len(entries))
			group := entries[off:end]
			page, err := encodeNode(group, level)
			if err != nil {
				return nil, err
			}
			idx, err := dev.AppendPageCtx(context.Background(), t.file, page)
			if err != nil {
				return nil, err
			}
			mbr := group[0].box
			for _, e := range group[1:] {
				mbr = mbr.Union(e.box)
			}
			next = append(next, entry{box: mbr, child: idx})
		}
		entries = next
		level++
		if len(entries) == 1 {
			break
		}
	}
	t.rootPage = entries[0].child
	return t, nil
}

// Query returns all objects intersecting q, optionally restricted to the
// datasets in filter (nil = no filtering). Every node and leaf page visited
// costs a device read.
func (t *Tree) Query(q geom.Box, filter map[object.DatasetID]bool) ([]object.Object, error) {
	var out []object.Object
	err := t.Walk(q, func(o object.Object) error {
		if filter == nil || filter[o.Dataset] {
			out = append(out, o)
		}
		return nil
	})
	return out, err
}

// Walk streams every object intersecting q to fn.
func (t *Tree) Walk(q geom.Box, fn func(object.Object) error) error {
	if t.numObjs == 0 {
		return nil
	}
	buf := make([]byte, simdisk.PageSize)
	var visit func(page int64) error
	visit = func(page int64) error {
		if err := t.dev.ReadPageCtx(context.Background(), t.file, page, buf); err != nil {
			return err
		}
		entries, level, err := decodeNode(buf)
		if err != nil {
			return err
		}
		for _, e := range entries {
			if !e.box.Intersects(q) {
				continue
			}
			if level > 0 {
				if err := visit(e.child); err != nil {
					return err
				}
				continue
			}
			// level 0: child is a leaf object page.
			leafBuf := make([]byte, simdisk.PageSize)
			if err := t.dev.ReadPageCtx(context.Background(), t.file, e.child, leafBuf); err != nil {
				return err
			}
			objs, err := object.DecodePage(leafBuf)
			if err != nil {
				return err
			}
			for _, o := range objs {
				if !o.Intersects(q) {
					continue
				}
				if err := fn(o); err != nil {
					return err
				}
			}
		}
		return nil
	}
	return visit(t.rootPage)
}

// FirstHit descends the tree and returns the first object whose box
// intersects q, reading only the node and leaf pages on one root-to-leaf
// path per subtree probed. FLAT's seed phase uses it: finding *one*
// intersecting element is much cheaper than enumerating all of them.
func (t *Tree) FirstHit(q geom.Box) (object.Object, bool, error) {
	if t.numObjs == 0 {
		return object.Object{}, false, nil
	}
	buf := make([]byte, simdisk.PageSize)
	var visit func(page int64) (object.Object, bool, error)
	visit = func(page int64) (object.Object, bool, error) {
		if err := t.dev.ReadPageCtx(context.Background(), t.file, page, buf); err != nil {
			return object.Object{}, false, err
		}
		entries, level, err := decodeNode(buf)
		if err != nil {
			return object.Object{}, false, err
		}
		for _, e := range entries {
			if !e.box.Intersects(q) {
				continue
			}
			if level > 0 {
				o, ok, err := visit(e.child)
				if err != nil || ok {
					return o, ok, err
				}
				continue
			}
			leafBuf := make([]byte, simdisk.PageSize)
			if err := t.dev.ReadPageCtx(context.Background(), t.file, e.child, leafBuf); err != nil {
				return object.Object{}, false, err
			}
			objs, err := object.DecodePage(leafBuf)
			if err != nil {
				return object.Object{}, false, err
			}
			for _, o := range objs {
				if o.Intersects(q) {
					return o, true, nil
				}
			}
		}
		return object.Object{}, false, nil
	}
	return visit(t.rootPage)
}
