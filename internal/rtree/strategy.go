package rtree

import (
	"context"
	"fmt"

	"spaceodyssey/internal/geom"
	"spaceodyssey/internal/object"
	"spaceodyssey/internal/rawfile"
	"spaceodyssey/internal/simdisk"
)

// readAll scans raw files into memory, charging the sequential read.
func readAll(raws []*rawfile.Raw) ([]object.Object, error) {
	total := 0
	for _, r := range raws {
		total += r.NumObjects()
	}
	objs := make([]object.Object, 0, total)
	for _, r := range raws {
		err := r.ScanCtx(context.Background(), func(o object.Object) error {
			objs = append(objs, o)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return objs, nil
}

// AllInOne is the RTree-Ain1 strategy: one tree over all datasets.
type AllInOne struct {
	dev  simdisk.Storage
	raws []*rawfile.Raw
	cfg  Config
	tree *Tree
}

// NewAllInOne creates the unbuilt engine.
func NewAllInOne(dev simdisk.Storage, raws []*rawfile.Raw, cfg Config) *AllInOne {
	return &AllInOne{dev: dev, raws: raws, cfg: cfg}
}

// Name implements engine.Engine.
func (e *AllInOne) Name() string { return "RTree-Ain1" }

// Build implements engine.Engine: scans all raw files and bulk-loads one
// tree over the union.
func (e *AllInOne) Build() error {
	if e.tree != nil {
		return nil
	}
	objs, err := readAll(e.raws)
	if err != nil {
		return err
	}
	tree, err := Build(e.dev, "rtree-ain1", objs, e.cfg)
	if err != nil {
		return err
	}
	e.tree = tree
	return nil
}

// Query implements engine.Engine.
func (e *AllInOne) Query(q geom.Box, datasets []object.DatasetID) ([]object.Object, error) {
	if e.tree == nil {
		return nil, fmt.Errorf("rtree: query before build")
	}
	filter := make(map[object.DatasetID]bool, len(datasets))
	for _, ds := range datasets {
		filter[ds] = true
	}
	return e.tree.Query(q, filter)
}

// Tree exposes the built tree (nil before Build).
func (e *AllInOne) Tree() *Tree { return e.tree }

// OneForEach is the RTree-1fE strategy: one tree per dataset; queries probe
// only the requested datasets' trees.
type OneForEach struct {
	dev   simdisk.Storage
	raws  map[object.DatasetID]*rawfile.Raw
	cfg   Config
	trees map[object.DatasetID]*Tree
}

// NewOneForEach creates the unbuilt engine.
func NewOneForEach(dev simdisk.Storage, raws []*rawfile.Raw, cfg Config) *OneForEach {
	m := make(map[object.DatasetID]*rawfile.Raw, len(raws))
	for _, r := range raws {
		m[r.Dataset()] = r
	}
	return &OneForEach{dev: dev, raws: m, cfg: cfg}
}

// Name implements engine.Engine.
func (e *OneForEach) Name() string { return "RTree-1fE" }

// Build implements engine.Engine.
func (e *OneForEach) Build() error {
	if e.trees != nil {
		return nil
	}
	trees := make(map[object.DatasetID]*Tree, len(e.raws))
	for ds, raw := range e.raws {
		objs, err := readAll([]*rawfile.Raw{raw})
		if err != nil {
			return err
		}
		tree, err := Build(e.dev, fmt.Sprintf("rtree-ds%d", ds), objs, e.cfg)
		if err != nil {
			return err
		}
		trees[ds] = tree
	}
	e.trees = trees
	return nil
}

// Query implements engine.Engine.
func (e *OneForEach) Query(q geom.Box, datasets []object.DatasetID) ([]object.Object, error) {
	if e.trees == nil {
		return nil, fmt.Errorf("rtree: query before build")
	}
	var out []object.Object
	for _, ds := range datasets {
		tree, ok := e.trees[ds]
		if !ok {
			return nil, fmt.Errorf("rtree: unknown dataset %d", ds)
		}
		objs, err := tree.Query(q, nil)
		if err != nil {
			return nil, err
		}
		out = append(out, objs...)
	}
	return out, nil
}
