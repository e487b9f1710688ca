package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	odyssey "spaceodyssey"
	"spaceodyssey/internal/bench"
)

// TestCommittedArtifacts pins the report schemas: every committed
// BENCH_*.json must decode strictly into its row's report struct and pass
// that row's check.
func TestCommittedArtifacts(t *testing.T) {
	files, err := filepath.Glob("../../BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 5 {
		t.Fatalf("found %d committed artifacts, want 5: %v", len(files), files)
	}
	for _, path := range files {
		if err := validateFile(path); err != nil {
			t.Errorf("%s: %v", filepath.Base(path), err)
		}
	}
}

// committed decodes one committed artifact into its report struct.
func committed(t *testing.T, name string, into any) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("../..", name))
	if err == nil {
		err = json.Unmarshal(data, into)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// TestValidateWantsTheCompleteRecording: a report's check skips what the
// report does not contain, so validate must refuse a committed artifact that
// was narrowed — the orderings it left out would be evaluated nowhere.
func TestValidateWantsTheCompleteRecording(t *testing.T) {
	narrowed := func(name string, into any) string {
		t.Helper()
		data, err := json.Marshal(into)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	var sc scenariosReport
	committed(t, "BENCH_scenarios.json", &sc)
	sc.Scenarios = sc.Scenarios[4:5] // diurnal: no ordering is asserted on it
	if err := sc.check(); err != nil {
		t.Fatalf("a one-scenario report is a valid fresh run: %v", err)
	}
	if validateFile(narrowed("scenarios.json", &sc)) == nil {
		t.Error("validate passed a scenarios artifact without drift and zipf")
	}
	committed(t, "BENCH_scenarios.json", &sc)
	for i := range sc.Scenarios {
		s := &sc.Scenarios[i]
		s.Modes = s.Modes[:len(s.Modes)-1]
	}
	if validateFile(narrowed("static.json", &sc)) == nil {
		t.Error("validate passed a scenarios artifact without the adaptive mode")
	}
	committed(t, "BENCH_scenarios.json", &sc)
	for i := range sc.Scenarios {
		ad := sc.Scenarios[i].adaptive()
		ad.FinalCapacity = ad.CacheCapacity
	}
	if err := sc.check(); err != nil {
		t.Fatalf("a tuner that stayed at its start is inside its range: %v", err)
	}
	if validateFile(narrowed("pinned.json", &sc)) == nil {
		t.Error("validate passed a scenarios artifact whose cache tuner never left its start")
	}
	var cl clusterReport
	committed(t, "BENCH_cluster.json", &cl)
	cl.ShardFaults, cl.Crash, cl.SlowUnhedged, cl.SlowHedged = false, nil, nil, nil
	if err := cl.check(); err != nil {
		t.Fatalf("a report without -shardfaults is a valid fresh run: %v", err)
	}
	if validateFile(narrowed("cluster.json", &cl)) == nil {
		t.Error("validate passed a cluster artifact without the shard-fault phases")
	}
	var pa paperReport
	committed(t, "BENCH_paper.json", &pa)
	pa.Figure5 = pa.Figure5[:1]
	if err := pa.check(); err != nil {
		t.Fatalf("a report of fewer figures is a valid fresh run: %v", err)
	}
	if validateFile(narrowed("paper.json", &pa)) == nil {
		t.Error("validate passed a paper artifact without fig5b")
	}
}

// TestChecksCatchABrokenInvariant: the checks are the CI gate, so each of
// the orderings and identities they hold must actually fail a report that
// breaks it.
func TestChecksCatchABrokenInvariant(t *testing.T) {
	load := func(name string, into report) {
		t.Helper()
		committed(t, name, into)
		if err := into.check(); err != nil {
			t.Fatalf("%s as committed: %v", name, err)
		}
	}
	var as asyncReport
	load("BENCH_async.json", &as)
	as.Contention.Throttled.QueuedDelaySeconds = 2 * as.Contention.Unthrottled.QueuedDelaySeconds
	var fa faultsReport
	load("BENCH_faults.json", &fa)
	fa.Storm.ServedFraction = 0.9
	var cl clusterReport
	load("BENCH_cluster.json", &cl)
	cl.SlowHedged.P99 = 2 * cl.SlowUnhedged.P99
	var noPhases clusterReport
	load("BENCH_cluster.json", &noPhases)
	noPhases.Crash = nil
	// The adaptive mode is the last of a scenario's sweep.
	var drift, zipf, capacity scenariosReport
	load("BENCH_scenarios.json", &drift)
	load("BENCH_scenarios.json", &zipf)
	load("BENCH_scenarios.json", &capacity)
	capacity.Scenarios[0].adaptive().FinalCapacity = 16 // the lab's old start, under the tuner's floor
	for i, s := range drift.Scenarios {
		switch ad := len(s.Modes) - 1; s.Scenario {
		case "drift": // level with a static setting: not a win
			drift.Scenarios[i].Modes[ad].SimSeconds = s.Modes[0].SimSeconds
		case "zipf":
			zipf.Scenarios[i].Modes[ad].SimSeconds = 1.2 * s.Modes[0].SimSeconds
		}
	}
	// One figure shape per kind: a total ordering, and the merge gain.
	var slower, noGain paperReport
	load("BENCH_paper.json", &slower)
	load("BENCH_paper.json", &noGain)
	for i, row := range slower.Figure4[0].Rows {
		if row.Engine == bench.KindOdyssey && row.K == 1 {
			slower.Figure4[0].Rows[i].Query, slower.Figure4[0].Rows[i].Total = 2*row.Query, 2*row.Total
		}
	}
	noGain.Figure5c.GainPercent = -1
	for name, rep := range map[string]report{
		"async": &as, "faults": &fa, "cluster": &cl, "cluster without phases": &noPhases,
		"scenarios drift": &drift, "scenarios zipf": &zipf, "scenarios capacity": &capacity,
		"paper fig4a": &slower, "paper fig5c": &noGain,
	} {
		if rep.check() == nil {
			t.Errorf("%s: check passed a report with its invariant broken", name)
		}
	}
}

// TestTable checks the table's own consistency: unique names and report
// ids, flag lists that name real flags, and every row rejecting each flag
// it does not read.
func TestTable(t *testing.T) {
	var defined []string
	flags(new(params)).VisitAll(func(f *flag.Flag) { defined = append(defined, f.Name) })
	names, ids := map[string]bool{}, map[string]bool{}
	for _, row := range experiments {
		if names[row.name] {
			t.Errorf("duplicate experiment name %q", row.name)
		}
		names[row.name] = true
		if row.report != nil {
			// The figure rows write one report between them.
			if row.id == "" || ids[row.id] && row.id != "paper" {
				t.Errorf("%s: report id %q is empty or taken", row.name, row.id)
			}
			ids[row.id] = true
		}
		for _, name := range row.flags {
			if !slices.Contains(defined, name) {
				t.Errorf("%s lists undefined flag -%s", row.name, name)
			}
		}
		for _, name := range defined {
			got, bad := row.unread([]string{"experiment", name})
			if reads := slices.Contains(row.flags, name); bad == reads || bad && got != name {
				t.Errorf("%s: unread(-%s) = %q, %v; the row reads it: %v", row.name, name, got, bad, reads)
			}
		}
	}
	for _, id := range append(slices.Clone(figureIDs), "gridsweep", "async", "faults", "cluster", "scenarios", "validate") {
		if !names[id] {
			t.Errorf("experiment %q is missing from the table", id)
		}
	}
}

// smallFixture is the runner tests' 3-dataset x 2,000-object environment.
func smallFixture() (*fixture, []odyssey.Query) {
	cfg := bench.DefaultConfig()
	cfg.Datasets, cfg.ObjectsPerDataset = 3, 2000
	wcfg := bench.WorkloadConfig{Queries: 40, QueryVolumeFrac: 1e-3, Seed: 7}
	return newFixture(cfg), generate(wcfg, cfg.Datasets, wcfg.Seed, fig4aShape)
}

func TestFingerprint(t *testing.T) {
	f, _ := smallFixture()
	objs := slices.Clone(f.data[0][:200])
	want := fingerprint(objs)
	rand.New(rand.NewSource(1)).Shuffle(len(objs), func(i, j int) { objs[i], objs[j] = objs[j], objs[i] })
	if got := fingerprint(objs); got != want {
		t.Errorf("fingerprint depends on order: %x != %x", got, want)
	}
	if fingerprint(objs[1:]) == want {
		t.Error("fingerprint misses a dropped object")
	}
	moved := slices.Clone(objs)
	moved[0].Center.X += 1e-9
	if fingerprint(moved) == want {
		t.Error("fingerprint misses a moved object")
	}
	swapped := slices.Clone(objs)
	swapped[0].ID, swapped[1].ID = swapped[1].ID, swapped[0].ID
	if fingerprint(swapped) == want {
		t.Error("fingerprint misses two objects trading identities")
	}
	if !samePrints(map[int]uint64{1: 7}, map[int]uint64{1: 7, 2: 9}) ||
		samePrints(map[int]uint64{1: 7, 2: 9}, map[int]uint64{1: 7}) ||
		samePrints(map[int]uint64{1: 7}, map[int]uint64{1: 8}) {
		t.Error("samePrints must hold got to want on exactly the queries got served")
	}
}

func TestConvergeReportsTheCap(t *testing.T) {
	f, queries := smallFixture()
	ex := f.explorer(nil)
	defer shut(ex)
	if passes, converged := converge(ex, queries, 1, 0); converged || passes != 1 {
		t.Errorf("one pass over a cold engine: passes %d, converged %v; want 1, false", passes, converged)
	}
	if _, converged := converge(ex, queries, 10, 0); !converged {
		t.Error("layout still adapting after 10 more passes")
	}
	if passes, converged := converge(ex, queries, 1, 4); !converged || passes != 0 {
		t.Errorf("pooled pass over a converged engine: passes %d, converged %v; want 0, true", passes, converged)
	}
}

func TestReplayPoolMatchesSerial(t *testing.T) {
	f, queries := smallFixture()
	ex, _ := f.steady(queries, nil, 0)
	defer shut(ex)
	serial := replay(ex, queries, replayOpts{})
	pooled := replay(ex, queries, replayOpts{workers: 4})
	want, got := serial.prints(), pooled.prints()
	if len(want) != len(queries) || len(got) != len(queries) {
		t.Fatalf("served %d serially and %d pooled of %d queries", len(want), len(got), len(queries))
	}
	if !samePrints(got, want) {
		t.Error("the pool returned different results than the serial loop")
	}
	// Strided submitters, the way a Router is driven.
	if strided := direct(ex, queries, 3, false).prints(); len(strided) != len(queries) || !samePrints(strided, want) {
		t.Error("three strided submitters returned different results than the serial loop")
	}
	// The serial loop's fingerprints are the plain Query results'.
	for i, q := range queries[:5] {
		objs, err := ex.Query(q.Range, q.Datasets)
		if err != nil {
			t.Fatal(err)
		}
		if fingerprint(objs) != want[i] {
			t.Errorf("query %d: replay fingerprint differs from a direct Query", i)
		}
	}
	if serial.sim <= 0 || pooled.admission.Completed != int64(len(queries)) {
		t.Errorf("pass bookkeeping: serial sim %v, pooled admission %+v", serial.sim, pooled.admission)
	}
}

// runRows parses a command line the way main does and runs its rows, failing
// the test when a row's own check does; it returns the -json path.
func runRows(t *testing.T, experiment, args string) string {
	t.Helper()
	var p params
	fs := flags(&p)
	path := filepath.Join(t.TempDir(), "report.json")
	if err := fs.Parse(append([]string{"-experiment", experiment, "-json", path}, strings.Fields(args)...)); err != nil {
		t.Fatal(err)
	}
	rows := p.resolve()
	fs.Visit(func(f *flag.Flag) { p.set = append(p.set, f.Name) })
	for _, row := range rows {
		if name, bad := row.unread(p.set); bad {
			t.Fatalf("%s does not read -%s", row.name, name)
		}
		if err := row.execute(&p); err != nil {
			t.Fatalf("%s: check failed: %v", row.name, err)
		}
	}
	return path
}

// TestServingRowsEndToEnd drives the serving rows whose checks hold at any
// size through execute — fixture, replay, report, check — at the smoke sizes
// CI used to run them at as separate steps, so a row whose own check fails is
// a test failure. (cluster and scenarios stay CI steps: hedged against
// unhedged is wall-clock at every size, and the lab sweeps 30 replays.)
func TestServingRowsEndToEnd(t *testing.T) {
	array := "-devices 2 -channels 2 -datasets 3"
	for _, tc := range []struct{ name, args string }{
		{"async", "-parallel 2 " + array + " -objects 2000 -queries 40 -realtime-scale 0.02"},
		{"faults", "-parallel 8 -share -cache -async " + array + " -objects 4000 -queries 80 -qvol 1e-3 -faultrate 0.02 -realtime-scale 0.05"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := validateFile(runRows(t, tc.name, tc.args)); err != nil {
				t.Errorf("the written report does not validate: %v", err)
			}
		})
	}
}

// TestFiguresPinned pins the paper: all seven figures at a reduced scale,
// held to a golden file for exact equality — every simulated nanosecond,
// combination count and answered-by-index-end — and computed twice, because
// the pin (here and BENCH_paper.json's in CI) rests on the figures being a
// function of their sizes and seeds alone. Page decode, run reads and the
// tree walk are shared by all five engines; TestPaperClockPinned (root
// package) pins Odyssey only. After a change that means to move a figure,
// rewrite the golden with the command below and say so in the PR.
func TestFiguresPinned(t *testing.T) {
	const args = "-datasets 6 -objects 3000 -queries 100 -ks 1,3,5"
	want, err := os.ReadFile("testdata/paper_small.json")
	if err != nil {
		t.Fatal(err)
	}
	for run := 1; run <= 2; run++ {
		path := runRows(t, "all", args)
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("run %d: the figures moved; if they were meant to, from the repository root:\n\tgo run ./cmd/odyssey-bench -experiment all %s -json cmd/odyssey-bench/testdata/paper_small.json", run, args)
		}
		if err := validateFile(path); err != nil {
			t.Errorf("run %d: all seven figures do not validate as a complete recording: %v", run, err)
		}
	}
}
