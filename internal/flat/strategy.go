package flat

import (
	"spaceodyssey/internal/engine"
	"spaceodyssey/internal/rawfile"
	"spaceodyssey/internal/simdisk"
)

// builder is the strategies' build step: scan the raw files and bulk-load
// one FLAT index over them.
func builder(dev simdisk.Storage, cfg Config) engine.BuildFunc[*Index] {
	return func(raws []*rawfile.Raw, label string) (*Index, error) {
		objs, err := engine.ReadAll(raws)
		if err != nil {
			return nil, err
		}
		return BuildIndex(dev, "flat-"+label, objs, cfg)
	}
}

// NewAllInOne creates the unbuilt FLAT-Ain1 engine: one FLAT index over all
// datasets.
func NewAllInOne(dev simdisk.Storage, raws []*rawfile.Raw, cfg Config) *engine.AllInOne[*Index] {
	return engine.NewAllInOne("FLAT", raws, builder(dev, cfg))
}

// NewOneForEach creates the unbuilt FLAT-1fE engine: one FLAT index per
// dataset.
func NewOneForEach(dev simdisk.Storage, raws []*rawfile.Raw, cfg Config) *engine.OneForEach[*Index] {
	return engine.NewOneForEach("FLAT", raws, builder(dev, cfg))
}
