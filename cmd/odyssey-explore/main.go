// Command odyssey-explore is an interactive shell for exploring spatial
// datasets with Space Odyssey: load .sod files (or generate data on the
// fly), issue range queries against dataset combinations, and watch the
// engine adapt — refinement, merge files, simulated I/O cost.
//
// Usage:
//
//	odyssey-explore -data data/            # load every .sod file in data/
//	odyssey-explore -gen 5x20000           # or generate 5 datasets inline
//
// Commands (also shown by `help`):
//
//	query <cx> <cy> <cz> <side> <ds,ds,...>   range query (cube)
//	info                                      per-dataset indexing state
//	metrics                                   engine counters
//	disk                                      simulated device statistics
//	quit
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	odyssey "spaceodyssey"
	"spaceodyssey/internal/dsfile"
)

func main() {
	var (
		dataDir = flag.String("data", "", "directory of .sod dataset files")
		gen     = flag.String("gen", "", "generate datasets inline, e.g. 5x20000")
		seed    = flag.Int64("seed", 1, "generation seed for -gen")
	)
	flag.Parse()

	ex, err := odyssey.NewExplorer(odyssey.Options{DropCachesPerQuery: true})
	if err != nil {
		fatalf("%v", err)
	}

	switch {
	case *dataDir != "":
		paths, err := filepath.Glob(filepath.Join(*dataDir, "*.sod"))
		if err != nil || len(paths) == 0 {
			fatalf("no .sod files in %q", *dataDir)
		}
		sort.Strings(paths)
		for _, p := range paths {
			ds, objs, err := dsfile.Load(p)
			if err != nil {
				fatalf("%s: %v", p, err)
			}
			if err := ex.AddDataset(ds, objs); err != nil {
				fatalf("%s: %v", p, err)
			}
			fmt.Printf("loaded %s: dataset %d, %d objects\n", p, ds, len(objs))
		}
	case *gen != "":
		var n, objs int
		if _, err := fmt.Sscanf(*gen, "%dx%d", &n, &objs); err != nil || n < 1 {
			fatalf("bad -gen %q (want e.g. 5x20000)", *gen)
		}
		for i, data := range odyssey.GenerateDatasets(odyssey.DataConfig{
			Seed: *seed, NumObjects: objs,
		}, n) {
			if err := ex.AddDataset(odyssey.DatasetID(i), data); err != nil {
				fatalf("%v", err)
			}
		}
		fmt.Printf("generated %d datasets x %d objects\n", n, objs)
	default:
		fatalf("need -data or -gen (see -h)")
	}

	fmt.Println("type 'help' for commands")
	sc := bufio.NewScanner(os.Stdin)
	for fmt.Print("odyssey> "); sc.Scan(); fmt.Print("odyssey> ") {
		if done := dispatch(ex, strings.Fields(sc.Text())); done {
			return
		}
	}
}

// dispatch executes one command; it returns true on quit.
func dispatch(ex *odyssey.Explorer, args []string) bool {
	if len(args) == 0 {
		return false
	}
	switch args[0] {
	case "quit", "exit":
		return true
	case "help":
		fmt.Println("  query <cx> <cy> <cz> <side> <ds,ds,...>  cube range query")
		fmt.Println("  info      per-dataset indexing state")
		fmt.Println("  metrics   engine counters (refinements, merges, ...)")
		fmt.Println("  disk      simulated device statistics")
		fmt.Println("  quit")
	case "query":
		runQuery(ex, args[1:])
	case "info":
		for i := 0; i < ex.NumDatasets(); i++ {
			info, err := ex.Dataset(odyssey.DatasetID(i))
			if err != nil {
				continue
			}
			state := "raw (unindexed)"
			if info.Indexed {
				state = fmt.Sprintf("indexed, %d leaf partitions", info.Leaves)
			}
			fmt.Printf("  dataset %d: %d objects, %d raw pages, %s\n",
				info.ID, info.Objects, info.RawPages, state)
		}
		fmt.Printf("  merge files: %d (%d pages)\n", ex.MergeFileCount(), ex.MergeSpacePages())
	case "metrics":
		m := ex.Metrics()
		fmt.Printf("  queries:                %d\n", m.Queries)
		fmt.Printf("  trees built:            %d\n", m.TreesBuilt)
		fmt.Printf("  refinements:            %d\n", m.Refinements)
		fmt.Printf("  partitions from tree:   %d\n", m.PartitionsFromTree)
		fmt.Printf("  partitions from merge:  %d\n", m.PartitionsFromMerge)
		fmt.Printf("  partitions skipped:     %d\n", m.PartitionsSkipped)
		fmt.Printf("  merge files created:    %d\n", m.MergeFilesCreated)
		fmt.Printf("  partitions merged:      %d\n", m.PartitionsMerged)
		fmt.Printf("  merge evictions:        %d\n", m.MergeEvictions)
		fmt.Printf("  segments shared:        %d\n", m.SegmentsShared)
		fmt.Printf("  merge threshold (mt):   %d\n", m.CurrentMergeThresh)
		fmt.Printf("  time in level-0 builds: %v\n", m.Phases.LevelZeroBuild)
		fmt.Printf("  time in refinement:     %v\n", m.Phases.Refinement)
		fmt.Printf("  time in tree reads:     %v\n", m.Phases.TreeReads)
		fmt.Printf("  time in merge reads:    %v\n", m.Phases.MergeReads)
		fmt.Printf("  time in merge writes:   %v\n", m.Phases.MergeWrites)
	case "disk":
		st := ex.DiskStats()
		fmt.Printf("  page reads:  %d (%d sequential, %d cache hits)\n",
			st.PageReads, st.SeqPages, st.CacheHits)
		fmt.Printf("  page writes: %d\n", st.PageWrites)
		fmt.Printf("  seeks:       %d\n", st.Seeks)
		fmt.Printf("  sim clock:   %v\n", ex.Clock())
	default:
		fmt.Printf("  unknown command %q (try 'help')\n", args[0])
	}
	return false
}

// runQuery parses and executes a cube query.
func runQuery(ex *odyssey.Explorer, args []string) {
	if len(args) != 5 {
		fmt.Println("  usage: query <cx> <cy> <cz> <side> <ds,ds,...>")
		return
	}
	var coords [4]float64
	for i := 0; i < 4; i++ {
		v, err := strconv.ParseFloat(args[i], 64)
		if err != nil {
			fmt.Printf("  bad number %q\n", args[i])
			return
		}
		coords[i] = v
	}
	var dss []odyssey.DatasetID
	for _, part := range strings.Split(args[4], ",") {
		id, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			fmt.Printf("  bad dataset id %q\n", part)
			return
		}
		dss = append(dss, odyssey.DatasetID(id))
	}
	q := odyssey.Cube(odyssey.V(coords[0], coords[1], coords[2]), coords[3])
	objs, dt, err := ex.QueryTimed(q, dss)
	if err != nil {
		fmt.Printf("  query failed: %v\n", err)
		return
	}
	fmt.Printf("  %d objects in %v simulated time\n", len(objs), dt)
	show := len(objs)
	if show > 5 {
		show = 5
	}
	for _, o := range objs[:show] {
		fmt.Printf("    ds%d obj%d center=%v\n", o.Dataset, o.ID, o.Center)
	}
	if len(objs) > show {
		fmt.Printf("    ... and %d more\n", len(objs)-show)
	}
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "odyssey-explore: "+format+"\n", args...)
	os.Exit(1)
}
