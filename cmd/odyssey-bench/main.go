// Command odyssey-bench is the paper: it reproduces the evaluation figures
// on the simulated disk and records them, and it carries the evidence the
// repository benchmark (benchmark/) does not.
//
//	odyssey-bench -experiment fig4a                         # one figure
//	odyssey-bench -experiment all -json BENCH_paper.json    # all seven, recorded (slow)
//	odyssey-bench -experiment fig4a -verify                 # check engines vs oracle first
//	odyssey-bench -experiment cluster -json out.json        # one serving row, with its report
//	odyssey-bench -experiment validate BENCH_*.json         # re-check committed reports
//
// -experiment selects a row of the table in experiments.go:
//
//   - fig4a..fig4d, fig5a..fig5c (a comma list, or "all"): text tables of
//     simulated disk seconds, and with -json the full results of the
//     invocation's figures as one report in integer nanoseconds —
//     deterministic in its sizes and seeds, matching the paper's disk-bound
//     methodology (README, "Reproduction scale"); gridsweep is the sweep
//     the grid baseline's defaults come from.
//   - cluster (oracle identity and charge conservation), scenarios (the
//     tuner lab): each drives a workload through a cluster Router or the
//     Explorer's worker pool and prints a summary.
//   - validate FILE...: re-runs the checks on written reports.
//
// Every row but gridsweep writes its report to -json PATH and exits non-zero
// when the report fails the row's check. The checks compare simulated
// quantities; wall-clock figures in the serving reports are illustrative
// (sleeps on a 1 ms timer tick). Host time, allocations and page counts are
// gated by benchmark/, not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"spaceodyssey/internal/bench"
	"spaceodyssey/internal/datagen"
)

// params is the parsed command line.
type params struct {
	cfg  bench.Config
	wcfg bench.WorkloadConfig

	experiment, layout, ksList, jsonPath, scenario string
	seekUS, transferUS, workers                    int
	shards, replicas                               int
	verify, adaptive                               bool
	scale                                          float64
	gap                                            time.Duration

	header header       // the envelope of the report of the row being run
	ks     []int        // figure 4's datasets-per-query sweep, parsed from -ks
	env    *bench.Env   // the figure rows' shared datasets, see environment
	paper  *paperReport // the figure rows' shared report, see runFigure
	set    []string     // the flags given on the command line
	args   []string     // validate's files
}

// flags declares the command line over p. Sizing, topology and rate flags
// apply to whichever row reads them (see experiment.flags).
func flags(p *params) *flag.FlagSet {
	fs := flag.NewFlagSet("odyssey-bench", flag.ExitOnError)
	p.cfg = bench.DefaultConfig()
	fs.StringVar(&p.experiment, "experiment", "all", "table row to run: a figure id (fig4a..fig4d, fig5a..fig5c, gridsweep), a comma list of them or 'all'; cluster, scenarios; or 'validate FILE...' to re-check written reports")
	fs.IntVar(&p.cfg.Datasets, "datasets", 10, "number of datasets (paper: 10)")
	fs.IntVar(&p.cfg.ObjectsPerDataset, "objects", 100000, "objects per dataset")
	fs.IntVar(&p.wcfg.Queries, "queries", 1000, "queries per workload (paper: 1000)")
	fs.Float64Var(&p.wcfg.QueryVolumeFrac, "qvol", 1e-4, "query volume fraction of the explored volume")
	fs.Int64Var(&p.wcfg.Seed, "seed", 7, "workload seed")
	fs.Int64Var(&p.cfg.DataSeed, "data-seed", 1, "dataset generation seed")
	fs.IntVar(&p.cfg.GridCells, "grid-cells", 6, "grid baseline cells per dimension")
	fs.StringVar(&p.ksList, "ks", "1,3,5,7,9", "datasets-per-query sweep for figure 4")
	fs.StringVar(&p.layout, "layout", "clustered", "data layout: clustered|uniform|filamentary")
	fs.BoolVar(&p.verify, "verify", false, "verify each engine against the naive oracle first (slow)")
	fs.IntVar(&p.seekUS, "seek-us", 500, "simulated seek+rotational latency in microseconds (8000 = unscaled SAS; 500 = reduced-scale calibration, see README \"Reproduction scale\")")
	fs.IntVar(&p.transferUS, "transfer-us", 25, "simulated per-page transfer time in microseconds")
	fs.IntVar(&p.workers, "parallel", 0, "pool workers for the serving rows (0 = the row's default: 8, scenarios 4)")
	fs.Float64Var(&p.scale, "realtime-scale", 1.0, "wall-clock seconds slept per simulated second in the measured replays")
	fs.IntVar(&p.cfg.Devices, "devices", 1, "number of simulated member devices to place files on")
	fs.IntVar(&p.cfg.Channels, "channels", 1, "independent I/O channels (platter heads) per device")
	fs.StringVar(&p.jsonPath, "json", "", "write the row's report as JSON to this file (the figure rows of one invocation share one)")
	fs.StringVar(&p.scenario, "scenario", "all", "scenarios: the named scenario to sweep (zipf|drift|scanheavy|pointheavy|diurnal|adversarial) or 'all'")
	fs.BoolVar(&p.adaptive, "adaptive", false, "scenarios: include the adaptive self-tuning mode (auto-sized result cache and heat decay, on the fixed 4 ms window) in the sweep")
	fs.DurationVar(&p.gap, "gap", 2*time.Millisecond, "scenarios: base open-loop inter-arrival unit; each scenario scales it by its own pacing curve")
	fs.IntVar(&p.shards, "shards", 4, "cluster: shard count N")
	fs.IntVar(&p.replicas, "replicas", 2, "cluster: replication factor R (clamped to -shards)")
	return fs
}

// resolve turns the parsed flag values into the configuration the rows run
// on, and the -experiment value into table rows.
func (p *params) resolve() []experiment {
	p.cfg.Cost.Seek = time.Duration(p.seekUS) * time.Microsecond
	p.cfg.Cost.Transfer = time.Duration(p.transferUS) * time.Microsecond
	if p.cfg.Devices < 1 || p.cfg.Channels < 1 {
		fatalf("-devices and -channels must be >= 1")
	}
	layouts := map[string]datagen.Layout{"clustered": datagen.Clustered, "uniform": datagen.Uniform, "filamentary": datagen.Filamentary}
	var known bool
	if p.cfg.DataLayout, known = layouts[p.layout]; !known {
		fatalf("unknown layout %q", p.layout)
	}
	for _, part := range strings.Split(p.ksList, ",") {
		k, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || k < 1 {
			fatalf("bad -ks entry %q", part)
		}
		p.ks = append(p.ks, k)
	}
	names := strings.Split(p.experiment, ",")
	if p.experiment == "all" {
		names = figureIDs
	}
	var rows []experiment
	for _, name := range names {
		row, found := findExperiment(func(e experiment) bool { return e.name == strings.TrimSpace(name) })
		// Only the figure rows (they read -ks) share an invocation: they
		// write one report between them, so a list cannot fight over -json
		// or the arguments.
		if !found || len(names) > 1 && !slices.Contains(row.flags, "ks") {
			fatalf("unknown experiment %q, or one that cannot be part of a list", name)
		}
		rows = append(rows, row)
	}
	return rows
}

func main() {
	var p params
	fs := flags(&p)
	fs.Parse(os.Args[1:]) // ExitOnError
	p.args = fs.Args()
	rows := p.resolve()
	fs.Visit(func(f *flag.Flag) { p.set = append(p.set, f.Name) })
	for _, row := range rows {
		if name, bad := row.unread(p.set); bad {
			fatalf("-experiment %s does not read -%s (it reads: -%s)", row.name, name, strings.Join(row.flags, " -"))
		}
		if len(p.args) > 0 && row.name != "validate" {
			fatalf("unexpected arguments %q", p.args)
		}
	}
	for _, row := range rows {
		if err := row.execute(&p); err != nil {
			fatalf("%s: check failed: %v", row.name, err)
		}
	}
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "odyssey-bench: "+format+"\n", args...)
	os.Exit(1)
}
