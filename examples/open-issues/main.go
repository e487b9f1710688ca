// Open-issues demo: the paper's §3.2.5 lists three directions left as
// future work; all three are implemented in this reproduction and shown
// here side by side:
//
//  1. merging partitions at different refinement levels (the coarsest-cover
//     strategy vs the paper's same-level rule);
//
//  2. a runtime cost model that adapts the merge threshold mt to the
//     workload;
//
//  3. improved disk space management that avoids re-copying a dataset
//     shared by several merged combinations.
//
//     go run ./examples/open-issues
package main

import (
	"fmt"
	"log"

	odyssey "spaceodyssey"
)

func main() {
	data := odyssey.GenerateDatasets(odyssey.DataConfig{
		Seed: 77, NumObjects: 20000, Clusters: 8,
	}, 6)

	// A workload where dataset 0 is also explored alone (so its index
	// refines ahead of the others) and two overlapping combinations are
	// hot (so their merge files duplicate partitions).
	runSession := func(opts odyssey.Options) *odyssey.Explorer {
		ex, err := odyssey.NewExplorer(opts)
		if err != nil {
			log.Fatal(err)
		}
		for i, objs := range data {
			if err := ex.AddDataset(odyssey.DatasetID(i), objs); err != nil {
				log.Fatal(err)
			}
		}
		center := data[0][500].Center
		// Tiny solo queries drive dataset 0 two levels deeper than the
		// others in this area...
		pin := odyssey.Cube(center, 0.008)
		for i := 0; i < 6; i++ {
			if _, err := ex.Query(pin, []odyssey.DatasetID{0}); err != nil {
				log.Fatal(err)
			}
		}
		// ...then two overlapping combinations query the area with larger
		// ranges: their refinement levels now disagree with dataset 0's.
		hot := odyssey.Cube(center, 0.05)
		for i := 0; i < 6; i++ {
			if _, err := ex.Query(hot, []odyssey.DatasetID{0, 1, 2}); err != nil {
				log.Fatal(err)
			}
			if _, err := ex.Query(hot, []odyssey.DatasetID{0, 1, 2, 3}); err != nil {
				log.Fatal(err)
			}
		}
		return ex
	}

	fmt.Println("1) merging partitions at different refinement levels")
	fmt.Printf("%-20s %12s %14s\n", "policy", "merged", "served from merge")
	for _, p := range []odyssey.MergeLevelPolicy{odyssey.MergeSameLevel, odyssey.MergeCoarsestCover} {
		ex := runSession(odyssey.Options{MergeLevelPolicy: p})
		m := ex.Metrics()
		fmt.Printf("%-20s %12d %14d\n", p, m.PartitionsMerged, m.PartitionsFromMerge)
	}
	fmt.Println("   (dataset 0 was refined ahead; same-level must wait for the others to catch up,")
	fmt.Println("    coarsest-cover merges above the divergence)")

	fmt.Println("\n2) disk space: sharing partition copies across merge files")
	for _, share := range []bool{false, true} {
		ex := runSession(odyssey.Options{ShareMergeSegments: share})
		m := ex.Metrics()
		fmt.Printf("   sharing=%-5v merge files=%d, pages=%d, segments shared=%d\n",
			share, m.MergeFilesCreated, ex.MergeSpacePages(), m.SegmentsShared)
	}

	fmt.Println("\n3) adaptive merge threshold under a non-repeating workload")
	ex, err := odyssey.NewExplorer(odyssey.Options{AdaptiveMergeThresholds: true})
	if err != nil {
		log.Fatal(err)
	}
	for i, objs := range data {
		if err := ex.AddDataset(odyssey.DatasetID(i), objs); err != nil {
			log.Fatal(err)
		}
	}
	combos := [][]odyssey.DatasetID{
		{0, 1, 2}, {1, 2, 3}, {2, 3, 4}, {3, 4, 5}, {0, 2, 4}, {1, 3, 5},
	}
	for i := 0; i < 120; i++ {
		f := float64(i%30)/30*0.8 + 0.1
		q := odyssey.Cube(odyssey.V(f, f, f), 0.03)
		if _, err := ex.Query(q, combos[i%len(combos)]); err != nil {
			log.Fatal(err)
		}
	}
	m := ex.Metrics()
	fmt.Printf("   after 120 scattered queries: mt adapted from 2 to %d (merged copies were rarely reused)\n",
		m.CurrentMergeThresh)
}
