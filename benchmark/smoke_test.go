package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// manifest is BENCHMARK.json, as the driver reads it.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return m
}

// TestManifestMatchesProgram holds BENCHMARK.json and the program's own
// tables together: same workloads, same metrics, units, directions, bounds.
func TestManifestMatchesProgram(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(m.Workloads), len(workloads))
	}
	for i, w := range m.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	check := func(kind string, got []manifestMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, g := range got {
			w := want[i]
			if !name.MatchString(g.Name) {
				t.Errorf("%s %q: not a valid metric name", kind, g.Name)
			}
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better || g.Bound != w.bound {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", kind, i, g, w)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd)
	check("per_layer", m.PerLayer, perLayer)
}

// printed parses "workload metric value unit" lines into
// workload -> metric -> values seen.
func printed(t *testing.T, out string) map[string]map[string][]float64 {
	t.Helper()
	seen := map[string]map[string][]float64{}
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) < 3 || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "{") || strings.HasSuffix(line, "(not gated)") {
			continue
		}
		v, err := strconv.ParseFloat(f[2], 64)
		if err != nil {
			t.Fatalf("metric line %q: %v", line, err)
		}
		if seen[f[0]] == nil {
			seen[f[0]] = map[string][]float64{}
		}
		seen[f[0]][f[1]] = append(seen[f[0]][f[1]], v)
	}
	return seen
}

// problems picks the lines of a report that say what went wrong.
func problems(out string) string {
	var lines []string
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, " problem: ") {
			lines = append(lines, line)
		}
	}
	return strings.Join(lines, "\n")
}

func lastLine(out string) string {
	lines := strings.Split(strings.TrimSpace(out), "\n")
	return lines[len(lines)-1]
}

func runSmoke(t *testing.T, trace int, traceDir string) (string, map[string]wireResult) {
	t.Helper()
	var out bytes.Buffer
	code, err := run(config{
		workload: "all", seed: 7, seconds: 0.2, trace: trace,
		size: "smoke", traceDir: traceDir,
	}, &out)
	if err != nil || code != 0 {
		t.Fatalf("run: exit %d, %v\n%s", code, err, out.String())
	}
	var results map[string]wireResult
	if err := json.Unmarshal([]byte(lastLine(out.String())), &results); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	return out.String(), results
}

// TestSmoke runs every workload at smoke size, untraced twice and traced
// once: all complete, every reply matches the oracle, every metric of
// BENCHMARK.json is printed exactly once per workload, the deterministic
// simulated metrics repeat exactly, and the trace files parse.
func TestSmoke(t *testing.T) {
	m := readManifest(t)
	traceDir := t.TempDir()

	first, firstResults := runSmoke(t, 0, traceDir)
	_, secondResults := runSmoke(t, 0, traceDir)
	traced, tracedResults := runSmoke(t, 1, traceDir)

	for _, kind := range []struct {
		name    string
		out     string
		results map[string]wireResult
		metrics []manifestMetric
	}{
		{"end_to_end", first, firstResults, m.EndToEnd},
		{"per_layer", traced, tracedResults, m.PerLayer},
	} {
		seen := printed(t, kind.out)
		for _, w := range m.Workloads {
			res, ok := kind.results[w.Name]
			if !ok {
				t.Fatalf("%s: workload %s missing from the result", kind.name, w.Name)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s %s: correct %v, attempted %d, failed %d\n%s", kind.name, w.Name, res.Correct, res.Attempted, res.Failed, problems(kind.out))
			}
			if len(res.Metrics) != len(kind.metrics) {
				t.Errorf("%s %s: result has %d metrics, BENCHMARK.json lists %d", kind.name, w.Name, len(res.Metrics), len(kind.metrics))
			}
			for _, metric := range kind.metrics {
				if n := len(seen[w.Name][metric.Name]); n != 1 {
					t.Errorf("%s %s: %s printed %d times, want once", kind.name, w.Name, metric.Name, n)
				}
				got, ok := res.Metrics[metric.Name]
				if !ok || got.Unit != metric.Unit {
					t.Errorf("%s %s: result metric %s = %+v (present %v), want unit %q", kind.name, w.Name, metric.Name, got, ok, metric.Unit)
				}
				if kind.name == "end_to_end" && got.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is zero", w.Name, metric.Name)
				}
			}
		}
	}

	for _, metric := range endToEnd {
		for _, w := range metric.exactOn {
			a, b := firstResults[w].Metrics[metric.name].Value, secondResults[w].Metrics[metric.name].Value
			if math.Abs(a-b) > rounding*math.Abs(a) {
				t.Errorf("%s %s: %v on the first run, %v on the second; must repeat exactly", w, metric.name, a, b)
			}
		}
	}

	for _, w := range m.Workloads {
		b, err := os.ReadFile(filepath.Join(traceDir, "trace."+w.Name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceEvents []struct {
				Name string  `json:"name"`
				Ph   string  `json:"ph"`
				Dur  float64 `json:"dur"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(b, &doc); err != nil {
			t.Fatalf("trace of %s: %v", w.Name, err)
		}
		if len(doc.TraceEvents) == 0 {
			t.Errorf("trace of %s has no events", w.Name)
		}
	}
}

// TestSetFieldsReportsMissing pins the reason presets are written as field
// names: a switch a later commit deletes is reported, not a build error.
func TestSetFieldsReportsMissing(t *testing.T) {
	var dst struct {
		Kept  int
		Typed float64
	}
	missing := setFields(&dst, fields{"Kept": 3, "Typed": 2, "Deleted": true})
	if dst.Kept != 3 || dst.Typed != 2 {
		t.Errorf("fields not set: %+v", dst)
	}
	if len(missing) != 1 || missing[0] != "Deleted" {
		t.Errorf("missing = %v, want [Deleted]", missing)
	}
}
