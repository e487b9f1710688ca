// Package engine defines the interface every competing approach implements
// — Space Odyssey and the baselines (FLAT, R-tree, Grid, naive scans) — so
// the experiment harness and the equivalence tests can drive them
// uniformly.
package engine

import (
	"context"
	"sort"

	"spaceodyssey/internal/geom"
	"spaceodyssey/internal/object"
	"spaceodyssey/internal/rawfile"
)

// Engine executes multi-dataset range queries.
//
// Build performs all upfront indexing; adaptive approaches implement it as a
// no-op and amortize indexing into Query. Query returns every object from
// the requested datasets whose box intersects q, in unspecified order.
type Engine interface {
	Build() error
	Query(q geom.Box, datasets []object.DatasetID) ([]object.Object, error)
}

// NaiveScan answers queries by fully scanning the raw files. It is the
// slowest correct engine and doubles as the oracle for equivalence tests.
type NaiveScan struct {
	raws map[object.DatasetID]*rawfile.Raw
}

// NewNaiveScan builds the oracle over the given raw files.
func NewNaiveScan(raws []*rawfile.Raw) *NaiveScan {
	m := make(map[object.DatasetID]*rawfile.Raw, len(raws))
	for _, r := range raws {
		m[r.Dataset()] = r
	}
	return &NaiveScan{raws: m}
}

// Build implements Engine; raw files need no preparation.
func (e *NaiveScan) Build() error { return nil }

// Query implements Engine by scanning each requested dataset end to end.
func (e *NaiveScan) Query(q geom.Box, datasets []object.DatasetID) ([]object.Object, error) {
	var out []object.Object
	for _, ds := range datasets {
		raw, ok := e.raws[ds]
		if !ok {
			continue
		}
		err := raw.ScanRange(context.Background(), q, func(o object.Object) error {
			out = append(out, o)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// SortObjects orders objects by (dataset, id); tests use it to compare
// result sets independent of engine-specific ordering.
func SortObjects(objs []object.Object) {
	sort.Slice(objs, func(i, j int) bool {
		if objs[i].Dataset != objs[j].Dataset {
			return objs[i].Dataset < objs[j].Dataset
		}
		return objs[i].ID < objs[j].ID
	})
}

// SameObjects reports whether a and b contain exactly the same objects,
// ignoring order. It sorts both slices in place.
func SameObjects(a, b []object.Object) bool {
	if len(a) != len(b) {
		return false
	}
	SortObjects(a)
	SortObjects(b)
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
