package grid

import (
	"spaceodyssey/internal/engine"
	"spaceodyssey/internal/geom"
	"spaceodyssey/internal/rawfile"
	"spaceodyssey/internal/simdisk"
)

// builder checks the configuration once, so the constructors fail on a bad
// one, and returns the strategies' build step: one built grid over the given
// raw files.
func builder(dev simdisk.Storage, bounds geom.Box, cfg Config) (engine.BuildFunc[*Index], error) {
	if _, err := cfg.check(bounds); err != nil {
		return nil, err
	}
	return func(raws []*rawfile.Raw, _ string) (*Index, error) {
		idx, err := NewIndex(dev, raws, bounds, cfg)
		if err != nil {
			return nil, err
		}
		return idx, idx.Build()
	}, nil
}

// NewOneForEach creates the unbuilt Grid-1fE engine, the paper's grid
// baseline: one grid per dataset; a query probes only the grids of the
// datasets it touches.
func NewOneForEach(dev simdisk.Storage, raws []*rawfile.Raw, bounds geom.Box, cfg Config) (*engine.OneForEach[*Index], error) {
	build, err := builder(dev, bounds, cfg)
	if err != nil {
		return nil, err
	}
	return engine.NewOneForEach("Grid", raws, build), nil
}

// NewAllInOne creates the unbuilt Grid-Ain1 engine: a single grid holding
// every dataset's objects.
func NewAllInOne(dev simdisk.Storage, raws []*rawfile.Raw, bounds geom.Box, cfg Config) (*engine.AllInOne[*Index], error) {
	build, err := builder(dev, bounds, cfg)
	if err != nil {
		return nil, err
	}
	return engine.NewAllInOne("Grid", raws, build), nil
}
