package odyssey

import (
	"context"
	"fmt"
	"hash/fnv"
	"sort"
	"testing"

	"spaceodyssey/internal/pagefile"
)

// pinGolden is what one fixed exploration must reproduce exactly: the
// simulated clock, the device's page counters, the space the adapted layout
// takes, the converged layout and every query's result.
type pinGolden struct {
	clockNs      int64
	pagesRead    int64
	pagesWritten int64
	totalPages   int64
	layout       string // FNV-1a of Engine().LayoutSignature()
	results      string // FNV-1a over every query's sorted (dataset, id) list
	pages        string // FNV-1a over every page of every tree and merge file
}

// pinCombos is the cycle of dataset combinations the fixed exploration
// draws from. Only three of them reach |C| >= 3 and those form a chain
// ({0,1,2} < {0,1,2,3} < {0,1,2,3,4}), so at most one merge file of any size
// ever exists: superset routing ({0,1} -> {0,1,2}, {2,3} -> {0,1,2,3},
// {3,4} -> all five) and subset routing (all five before its own file
// exists, or after the budget evicted it) both occur, but never with two
// equally good candidates — a tie the parent commit broke by map order.
var pinCombos = [][]DatasetID{
	{0, 1, 2}, {0, 1, 2, 3}, {0, 1}, {3}, {0, 1, 2, 3, 4}, {2, 3},
	{0, 1, 2}, {4}, {3, 4}, {0, 1, 2, 3}, {1, 2}, {0, 1, 2, 3, 4},
}

// pinWorkload is the fixed exploration: five clustered datasets and 156
// clustered range queries over three hot spots. The first 24 are
// single-dataset queries of a tenth the volume, alternating datasets 3 and 4,
// so those two trees are refined past the others before anything merges and
// the level policies have mixed levels to disagree about; the rest pair the
// full-size ranges with pinCombos in order.
func pinWorkload(t *testing.T) ([][]Object, []Query) {
	t.Helper()
	data := GenerateDatasets(DataConfig{Seed: 1601, NumObjects: 3000, Clusters: 6}, 5)
	ranges := func(seed int64, qvol float64) []Query {
		w, err := GenerateWorkload(WorkloadConfig{
			Seed: seed, NumQueries: 156, NumDatasets: 5, DatasetsPerQuery: 1,
			QueryVolumeFrac: qvol, RangeDist: RangeClustered,
			Centers: []Vec{V(0.3, 0.35, 0.4), V(0.6, 0.55, 0.5), V(0.45, 0.7, 0.3)},
		})
		if err != nil {
			t.Fatal(err)
		}
		return w.Queries
	}
	qs, fine := ranges(1610, 2e-4), ranges(1611, 2e-5)
	for i := range qs {
		if i < 24 {
			qs[i].Range = fine[i].Range
			qs[i].Datasets = []DatasetID{DatasetID(3 + i%2)}
		} else {
			qs[i].Datasets = pinCombos[i%len(pinCombos)]
		}
	}
	return data, qs
}

// runPin drives the fixed exploration through one Explorer and reads the
// golden quantities off it. quiesce drains background maintenance after
// every query (a no-op when maintenance is synchronous).
func runPin(t *testing.T, opts Options) pinGolden {
	t.Helper()
	data, qs := pinWorkload(t)
	ex, err := NewExplorer(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	for i, objs := range data {
		if err := ex.AddDataset(DatasetID(i), objs); err != nil {
			t.Fatal(err)
		}
	}
	results := fnv.New64a()
	for _, q := range qs {
		objs, err := ex.Query(q.Range, q.Datasets)
		if err != nil {
			t.Fatalf("query %d: %v", q.ID, err)
		}
		ids := make([]uint64, len(objs))
		for i, o := range objs {
			ids[i] = uint64(o.Dataset)<<48 | uint64(o.ID)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		fmt.Fprintf(results, "%d:%v;", q.ID, ids)
		if err := ex.Quiesce(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	layout := fnv.New64a()
	layout.Write([]byte(ex.Engine().LayoutSignature()))
	st := ex.DiskStats()
	got := pinGolden{
		clockNs:      int64(ex.Clock()),
		pagesRead:    st.PageReads,
		pagesWritten: st.PageWrites,
		totalPages:   ex.dev.TotalPages(),
		layout:       fmt.Sprintf("%016x", layout.Sum64()),
		results:      fmt.Sprintf("%016x", results.Sum64()),
	}
	got.pages = pinPages(t, ex, len(data))
	return got
}

// pinPages hashes the stored bytes of the adapted layout: every page of the
// trees of datasets 0..n-1, then of every merge file in combination order.
// It reads through the device, so it runs after the clock and the counters
// are taken.
func pinPages(t *testing.T, ex *Explorer, n int) string {
	t.Helper()
	h := fnv.New64a()
	hashFile := func(name string, f *pagefile.File) {
		pages, err := f.NumPages()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s:%d;", name, pages)
		if pages == 0 {
			return
		}
		buf, err := ex.dev.ReadRunCtx(context.Background(), f.ID(), 0, pages)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		h.Write(buf)
	}
	for ds := range n {
		hashFile(fmt.Sprintf("tree %d", ds), ex.Engine().Tree(DatasetID(ds)).File())
	}
	for _, mf := range ex.Engine().Merger().Files() {
		hashFile("merge "+string(mf.Combo()), mf.File())
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestPaperClockPinned pins the contract every simulated figure rests on:
// a serial Explorer reproduces its simulated clock, page counts, space and
// converged layout bit for bit. The constants were recorded at the commit
// before the query pipeline was restructured into stages (PR 16) and must
// only ever change in a PR whose point is to change them. The first four
// rows are the paper configuration and the merge options that always ran
// the exclusive merge step; the last is the serving preset driven by one
// client that waits out background maintenance after every query, which is
// repeatable (20 of 20 runs at the recording commit) because a single
// maintenance worker then runs each query's refinements and merge in a
// fixed order. Its clock was re-recorded when publishes began dropping only
// the cached cells they change, and again when refinements and merge copies
// began taking the cells the result cache holds instead of reading them
// from the device; both times its page counts, layout, results and stored
// pages held. The stored pages — every page of every tree and merge file —
// were recorded for all five rows at the commit before the second change.
//
// share-segments pins no clock: at the recording commit its page counts and
// layout repeated but its clock did not (14 values in 20 runs) — shared
// segments live in other files, and reads whose runs start at the same page
// of different files were ordered by map iteration. The order is fixed now;
// TestSharedSegmentClockRepeats holds it.
func TestPaperClockPinned(t *testing.T) {
	cases := []struct {
		name string
		opts Options
		want pinGolden
	}{
		{"paper", Options{DropCachesPerQuery: true},
			pinGolden{6451093800, 1211, 1471, 1602, "4c6a44966b00bb40", "d2ffad6ef41806e1",
				"13b391f5a87872de"}},
		{"coarsest-cover", Options{DropCachesPerQuery: true, MergeLevelPolicy: MergeCoarsestCover},
			pinGolden{6252395200, 1241, 1493, 1624, "8d6a816c1af4e3bd", "d2ffad6ef41806e1",
				"38d94adeddac003a"}},
		{"share-segments", Options{DropCachesPerQuery: true, ShareMergeSegments: true},
			pinGolden{0, 1203, 1365, 1496, "4c6a44966b00bb40", "d2ffad6ef41806e1",
				"f1cf384c3274ced6"}},
		{"space-budget", Options{DropCachesPerQuery: true, MergeSpaceBudgetPages: 48},
			pinGolden{9397110600, 1369, 1713, 1421, "27009fea1a7cb5cb", "d2ffad6ef41806e1",
				"94d907f5adb425b7"}},
		{"serving", Options{
			AsyncMaintenance: true, MaintenanceWorkers: 1,
			CacheResults: true, AdaptiveCache: true, HeatHalfLife: 64,
		}, pinGolden{1795367000, 276, 1455, 1586, "cd5af44a3327ae4f", "d2ffad6ef41806e1",
			"92603d77e8c8001f"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := runPin(t, tc.opts)
			if tc.want.clockNs == 0 {
				got.clockNs = 0
			}
			if got != tc.want {
				t.Errorf("exploration diverged from the pinned run:\n got  %#v\n want %#v", got, tc.want)
			}
		})
	}
}
