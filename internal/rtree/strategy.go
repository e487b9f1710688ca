package rtree

import (
	"spaceodyssey/internal/engine"
	"spaceodyssey/internal/rawfile"
	"spaceodyssey/internal/simdisk"
)

// builder is the strategies' build step: scan the raw files and bulk-load
// one tree over them.
func builder(dev simdisk.Storage, cfg Config) engine.BuildFunc[*Tree] {
	return func(raws []*rawfile.Raw, label string) (*Tree, error) {
		objs, err := engine.ReadAll(raws)
		if err != nil {
			return nil, err
		}
		return Build(dev, "rtree-"+label, objs, cfg)
	}
}

// NewAllInOne creates the unbuilt RTree-Ain1 engine: one tree over all
// datasets.
func NewAllInOne(dev simdisk.Storage, raws []*rawfile.Raw, cfg Config) *engine.AllInOne[*Tree] {
	return engine.NewAllInOne("RTree", raws, builder(dev, cfg))
}

// NewOneForEach creates the unbuilt RTree-1fE engine: one tree per dataset;
// queries probe only the requested datasets' trees.
func NewOneForEach(dev simdisk.Storage, raws []*rawfile.Raw, cfg Config) *engine.OneForEach[*Tree] {
	return engine.NewOneForEach("RTree", raws, builder(dev, cfg))
}
