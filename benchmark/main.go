// Command benchmark is the repository's benchmark: four closed-loop
// workloads measured in two currencies (host and simulated), plus a traced
// run that breaks a query's time down by layer. See README.md.
//
//	bash benchmark/run.sh --workload serve_hot --seed 7 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

type config struct {
	workload  string
	seed      int64
	seconds   float64
	trace     int
	size      string
	out       string
	traceDir  string
	selfcheck bool
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "all", "workload to run: explore_cold, serve_hot, serve_scan, adapt_concurrent or all")
	flag.Int64Var(&cfg.seed, "seed", 7, "query-generation seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "seconds of timed passes per workload")
	flag.IntVar(&cfg.trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	flag.StringVar(&cfg.size, "size", "full", "full or smoke")
	flag.StringVar(&cfg.out, "out", "", "also write the report as JSON to this file")
	flag.StringVar(&cfg.traceDir, "tracedir", "benchmark/out", "directory the traced run writes trace.<workload>.json to")
	flag.BoolVar(&cfg.selfcheck, "selfcheck", false, "run the suite twice and fail if the two disagree beyond the bounds")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	code, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	os.Exit(code)
}

// run executes the invocation and writes the report to w. The last line it
// writes is the machine-readable result.
func run(cfg config, w io.Writer) (int, error) {
	sz, ok := sizes[cfg.size]
	if !ok {
		return 2, fmt.Errorf("unknown -size %q (want full or smoke)", cfg.size)
	}
	if cfg.seconds <= 0 {
		return 2, fmt.Errorf("-seconds must be positive")
	}
	var specs []workloadSpec
	if cfg.workload == "all" {
		specs = workloads
	} else if spec, ok := workloadByName(cfg.workload); ok {
		specs = []workloadSpec{spec}
	} else {
		return 2, fmt.Errorf("unknown -workload %q", cfg.workload)
	}
	meta := runMeta(cfg)
	e := newEnv(sz, cfg.seed, cfg.seconds, cfg.traceDir)
	meta["clients"] = e.clients
	meta["datagen_s"] = e.datagenS
	printMeta(w, meta)

	if cfg.selfcheck {
		return selfcheck(e, specs, w)
	}
	results, err := runSuite(e, specs, cfg.trace == 1, w)
	if err != nil {
		return 1, err
	}
	if cfg.out != "" {
		if err := writeReport(cfg.out, meta, results); err != nil {
			return 1, err
		}
	}
	printLastLine(w, results)
	return 0, nil
}

// runSuite runs each workload once, traced or not, printing as it goes.
func runSuite(e *env, specs []workloadSpec, traced bool, w io.Writer) ([]*result, error) {
	var results []*result
	for _, spec := range specs {
		r := newResult(spec.name)
		var err error
		if traced {
			err = e.tracedRun(spec, r)
		} else {
			var pr *publicRun
			if pr, err = e.runPublic(spec, e.seconds, e.sz.setups, false, r); err == nil {
				e.endToEnd(pr, r)
			}
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", spec.name, err)
		}
		printResult(w, r, traced)
		results = append(results, r)
	}
	return results, nil
}

// printLastLine prints the machine-readable result: one workload's, or all
// of them by name. A run that measured but found wrong replies still exits
// 0: the verdict is the "correct" field.
func printLastLine(w io.Writer, results []*result) {
	if len(results) == 1 {
		fmt.Fprintln(w, string(mustJSON(results[0].wire())))
		return
	}
	all := map[string]any{}
	for _, r := range results {
		all[r.workload] = r.wire()
	}
	fmt.Fprintln(w, string(mustJSON(all)))
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

type wireMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type wireResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]wireMetric `json:"metrics"`
}

func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer, notGated} {
		for _, m := range defs {
			if m.name == name {
				return m.unit
			}
		}
	}
	return ""
}

func (r *result) wire() wireResult {
	out := wireResult{
		Correct:   r.correct(),
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]wireMetric{},
	}
	for name, v := range r.values {
		out.Metrics[name] = wireMetric{Value: v, Unit: unitOf(name)}
	}
	return out
}

// runMeta describes the run: what code, what machine, what was asked.
func runMeta(cfg config) map[string]any {
	rev := "unknown"
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if out, err := exec.CommandContext(ctx, "git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		rev = strings.TrimSpace(string(out))
	}
	return map[string]any{
		"git_rev":    rev,
		"go_version": runtime.Version(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"size":       cfg.size,
		"trace":      cfg.trace,
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func printMeta(w io.Writer, meta map[string]any) {
	for _, k := range sortedKeys(meta) {
		fmt.Fprintf(w, "# %s %v\n", k, meta[k])
	}
}

// printResult writes one "workload metric value unit" line per metric, in
// the order of the metric tables, then the run's bookkeeping as comments.
func printResult(w io.Writer, r *result, traced bool) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, m := range defs {
		if v, ok := r.values[m.name]; ok {
			fmt.Fprintf(w, "%s %s %v %s\n", r.workload, m.name, v, m.unit)
		}
	}
	for _, m := range notGated {
		if v, ok := r.extra[m.name]; ok {
			fmt.Fprintf(w, "%s %s %v %s (not gated)\n", r.workload, m.name, v, m.unit)
		}
	}
	for _, k := range sortedKeys(r.info) {
		fmt.Fprintf(w, "# %s %s %v\n", r.workload, k, r.info[k])
	}
	fmt.Fprintf(w, "# %s attempted %d failed %d correct %v\n", r.workload, r.attempted, r.failed, r.correct())
	for _, p := range r.problems {
		fmt.Fprintf(w, "# %s problem: %s\n", r.workload, p)
	}
}

// writeReport writes what was printed, as JSON.
func writeReport(path string, meta map[string]any, results []*result) error {
	type entry struct {
		wireResult
		Extra    map[string]float64 `json:"not_gated,omitempty"`
		Info     map[string]any     `json:"info"`
		Problems []string           `json:"problems,omitempty"`
	}
	report := struct {
		Meta      map[string]any   `json:"meta"`
		Workloads map[string]entry `json:"workloads"`
	}{Meta: meta, Workloads: map[string]entry{}}
	for _, r := range results {
		report.Workloads[r.workload] = entry{r.wire(), r.extra, r.info, r.problems}
	}
	b, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
