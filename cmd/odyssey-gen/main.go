// Command odyssey-gen synthesizes spatial datasets and writes them as .sod
// files that odyssey-explore (and any program using internal/dsfile) can
// load. The generator models the paper's neuroscience data: clustered 3D
// micro-objects inside a shared brain volume (see README, "Reproduction
// scale").
//
// Usage:
//
//	odyssey-gen -out data/ -datasets 10 -objects 50000
//	odyssey-gen -out data/ -layout filamentary -seed 42
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"spaceodyssey/internal/datagen"
	"spaceodyssey/internal/dsfile"
	"spaceodyssey/internal/object"
)

func main() {
	var (
		out      = flag.String("out", "data", "output directory")
		datasets = flag.Int("datasets", 10, "number of datasets")
		objects  = flag.Int("objects", 50000, "objects per dataset")
		layout   = flag.String("layout", "clustered", "clustered|uniform|filamentary")
		seed     = flag.Int64("seed", 1, "generation seed")
		clusters = flag.Int("clusters", 20, "spatial clusters per dataset")
	)
	flag.Parse()

	var l datagen.Layout
	switch *layout {
	case "clustered":
		l = datagen.Clustered
	case "uniform":
		l = datagen.Uniform
	case "filamentary":
		l = datagen.Filamentary
	default:
		fmt.Fprintf(os.Stderr, "odyssey-gen: unknown layout %q\n", *layout)
		os.Exit(1)
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "odyssey-gen: %v\n", err)
		os.Exit(1)
	}

	cfg := datagen.Config{
		Seed: *seed, NumObjects: *objects, Layout: l, Clusters: *clusters,
	}
	dss := datagen.GenerateDatasets(cfg, *datasets)
	for i, objs := range dss {
		path := filepath.Join(*out, fmt.Sprintf("ds%02d.sod", i))
		if err := dsfile.Save(path, object.DatasetID(i), objs); err != nil {
			fmt.Fprintf(os.Stderr, "odyssey-gen: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d objects, %s layout)\n", path, len(objs), l)
	}
}
