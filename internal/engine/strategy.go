package engine

import (
	"context"
	"fmt"

	"spaceodyssey/internal/geom"
	"spaceodyssey/internal/object"
	"spaceodyssey/internal/rawfile"
)

// Index is what the paper's two static baseline strategies need of a built
// index (a FLAT index, an R-tree, a grid): a range query, restricted to the
// datasets in filter when filter is non-nil.
type Index interface {
	Query(q geom.Box, filter map[object.DatasetID]bool) ([]object.Object, error)
}

// BuildFunc builds one index over the given raw files, charging whatever
// reading them costs. label tells the all-in-one index ("ain1") from a
// dataset's own ("ds3"), for builders that name their files.
type BuildFunc[I Index] func(raws []*rawfile.Raw, label string) (I, error)

// ReadAll scans raw files into memory, charging the sequential read — the
// first step of a builder that bulk-loads from a slice.
func ReadAll(raws []*rawfile.Raw) ([]object.Object, error) {
	total := 0
	for _, r := range raws {
		total += r.NumObjects()
	}
	objs := make([]object.Object, 0, total)
	for _, r := range raws {
		var err error
		if objs, err = r.AppendAllCtx(context.Background(), objs); err != nil {
			return nil, err
		}
	}
	return objs, nil
}

// AllInOne is the "Ain1" strategy: a single index holding every dataset's
// objects; queries filter out datasets that were not requested.
type AllInOne[I Index] struct {
	family string
	raws   []*rawfile.Raw
	build  BuildFunc[I]
	idx    I
	built  bool
}

// NewAllInOne creates the unbuilt engine; family ("FLAT", "RTree", "Grid")
// names it.
func NewAllInOne[I Index](family string, raws []*rawfile.Raw, build BuildFunc[I]) *AllInOne[I] {
	return &AllInOne[I]{family: family, raws: raws, build: build}
}

// Name implements Engine.
func (e *AllInOne[I]) Name() string { return e.family + "-Ain1" }

// Build implements Engine: one index over the union of the raw files. A
// second Build performs no I/O.
func (e *AllInOne[I]) Build() error {
	if e.built {
		return nil
	}
	idx, err := e.build(e.raws, "ain1")
	if err != nil {
		return err
	}
	e.idx, e.built = idx, true
	return nil
}

// Query implements Engine.
func (e *AllInOne[I]) Query(q geom.Box, datasets []object.DatasetID) ([]object.Object, error) {
	if !e.built {
		return nil, fmt.Errorf("%s: query before build", e.Name())
	}
	filter := make(map[object.DatasetID]bool, len(datasets))
	for _, ds := range datasets {
		filter[ds] = true
	}
	return e.idx.Query(q, filter)
}

// Index exposes the built index (the zero I before Build).
func (e *AllInOne[I]) Index() I { return e.idx }

// OneForEach is the "1fE" strategy: one index per dataset; a query probes
// only the indexes of the datasets it touches.
type OneForEach[I Index] struct {
	family  string
	raws    []*rawfile.Raw
	build   BuildFunc[I]
	indexes map[object.DatasetID]I // nil until built
}

// NewOneForEach creates the unbuilt engine; family names it.
func NewOneForEach[I Index](family string, raws []*rawfile.Raw, build BuildFunc[I]) *OneForEach[I] {
	return &OneForEach[I]{family: family, raws: raws, build: build}
}

// Name implements Engine.
func (e *OneForEach[I]) Name() string { return e.family + "-1fE" }

// Build implements Engine: every dataset's index, in the order the raw files
// were given. A second Build performs no I/O.
func (e *OneForEach[I]) Build() error {
	if e.indexes != nil {
		return nil
	}
	indexes := make(map[object.DatasetID]I, len(e.raws))
	for _, raw := range e.raws {
		idx, err := e.build([]*rawfile.Raw{raw}, fmt.Sprintf("ds%d", raw.Dataset()))
		if err != nil {
			return err
		}
		indexes[raw.Dataset()] = idx
	}
	e.indexes = indexes
	return nil
}

// Query implements Engine.
func (e *OneForEach[I]) Query(q geom.Box, datasets []object.DatasetID) ([]object.Object, error) {
	if e.indexes == nil {
		return nil, fmt.Errorf("%s: query before build", e.Name())
	}
	var out []object.Object
	for _, ds := range datasets {
		idx, ok := e.indexes[ds]
		if !ok {
			return nil, fmt.Errorf("%s: unknown dataset %d", e.Name(), ds)
		}
		objs, err := idx.Query(q, nil)
		if err != nil {
			return nil, err
		}
		out = append(out, objs...)
	}
	return out, nil
}
