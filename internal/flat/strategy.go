package flat

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

// AllInOne is the FLAT-Ain1 strategy: one FLAT index over all datasets.
type AllInOne struct {
	dev  simdisk.Storage
	raws []*rawfile.Raw
	cfg  Config
	idx  *Index
}

// NewAllInOne creates the unbuilt engine.
func NewAllInOne(dev simdisk.Storage, raws []*rawfile.Raw, cfg Config) *AllInOne {
	return &AllInOne{dev: dev, raws: raws, cfg: cfg}
}

// Name implements engine.Engine.
func (e *AllInOne) Name() string { return "FLAT-Ain1" }

// Build implements engine.Engine.
func (e *AllInOne) Build() error {
	if e.idx != nil {
		return nil
	}
	objs, err := readAll(e.raws)
	if err != nil {
		return err
	}
	idx, err := BuildIndex(e.dev, "flat-ain1", objs, e.cfg)
	if err != nil {
		return err
	}
	e.idx = idx
	return nil
}

// Query implements engine.Engine.
func (e *AllInOne) Query(q geom.Box, datasets []object.DatasetID) ([]object.Object, error) {
	if e.idx == nil {
		return nil, fmt.Errorf("flat: query before build")
	}
	filter := make(map[object.DatasetID]bool, len(datasets))
	for _, ds := range datasets {
		filter[ds] = true
	}
	return e.idx.Query(q, filter)
}

// Index exposes the built index (nil before Build).
func (e *AllInOne) Index() *Index { return e.idx }

// OneForEach is the FLAT-1fE strategy: one FLAT index per dataset.
type OneForEach struct {
	dev     simdisk.Storage
	raws    map[object.DatasetID]*rawfile.Raw
	cfg     Config
	indexes map[object.DatasetID]*Index
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
func (e *OneForEach) Name() string { return "FLAT-1fE" }

// Build implements engine.Engine.
func (e *OneForEach) Build() error {
	if e.indexes != nil {
		return nil
	}
	indexes := make(map[object.DatasetID]*Index, len(e.raws))
	for ds, raw := range e.raws {
		objs, err := readAll([]*rawfile.Raw{raw})
		if err != nil {
			return err
		}
		idx, err := BuildIndex(e.dev, fmt.Sprintf("flat-ds%d", ds), objs, e.cfg)
		if err != nil {
			return err
		}
		indexes[ds] = idx
	}
	e.indexes = indexes
	return nil
}

// Query implements engine.Engine.
func (e *OneForEach) Query(q geom.Box, datasets []object.DatasetID) ([]object.Object, error) {
	if e.indexes == nil {
		return nil, fmt.Errorf("flat: query before build")
	}
	var out []object.Object
	for _, ds := range datasets {
		idx, ok := e.indexes[ds]
		if !ok {
			return nil, fmt.Errorf("flat: unknown dataset %d", ds)
		}
		objs, err := idx.Query(q, nil)
		if err != nil {
			return nil, err
		}
		out = append(out, objs...)
	}
	return out, nil
}
