package odyssey

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"spaceodyssey/internal/engine"
	"spaceodyssey/internal/rawfile"
)

// Cells a cached query cannot meet: a read-only walk leaves a leaf the result
// cache holds unvisited when the leaf's extent — the box of its objects'
// boxes — misses the query, and books it as the cache hit it would have been.

// halfSpaceEnv is an Explorer over datasets whose object centers all lie in
// x < 0.5, so every cell right of it is empty, and the NaiveScan oracle over
// the same raw files.
func halfSpaceEnv(t *testing.T, opts Options, nds int) *oracleEnv {
	t.Helper()
	ex, err := NewExplorer(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, objs := range GenerateDatasets(DataConfig{Seed: 42, NumObjects: 2000, Clusters: 4}, nds) {
		for j := range objs {
			objs[j].Center.X /= 2
		}
		if err := ex.AddDataset(DatasetID(i), objs); err != nil {
			t.Fatal(err)
		}
	}
	raws := make([]*rawfile.Raw, 0, nds)
	for _, raw := range ex.raws {
		raws = append(raws, raw)
	}
	return &oracleEnv{ex: ex, oracle: engine.NewNaiveScan(raws), nds: nds}
}

// TestConvergedQuerySkipsCellsItCannotMeet: on a converged serving Explorer
// whose cells the query has cached, the query's window straddles the filled
// half and the empty one. Every cell it leaves unvisited is one the walk's
// rule names — marked, its extent missing the query — and there are some,
// and some it visits: the query tests exactly the objects of the visited
// cells, none of the skipped ones, reads no page, books a hit for every cell
// of the window, and returns the oracle's answer. Merging is off, so every
// visited cell is a tree read filtered whole.
func TestConvergedQuerySkipsCellsItCannotMeet(t *testing.T) {
	env := halfSpaceEnv(t, Options{CacheResults: true, AsyncMaintenance: true, DisableMerging: true}, 2)
	defer env.ex.Close()
	q := Query{Range: NewBox(V(0.35, 0.2, 0.2), V(0.65, 0.5, 0.5)), Datasets: []DatasetID{0, 1}}
	converged := func() int {
		if err := env.check(q); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := env.ex.Quiesce(ctx); err != nil {
			t.Fatal(err)
		}
		return env.ex.Metrics().Refinements
	}
	for before := converged(); ; {
		after := converged()
		if after == before {
			break
		}
		before = after
	}
	// The layout holds still; this query caches what the last refinement
	// dropped.
	if err := env.check(q); err != nil {
		t.Fatal(err)
	}

	var skipped, visitedObjs, cells int
	for _, ds := range q.Datasets {
		tree := env.ex.engine.Tree(ds)
		for _, p := range tree.Lookup(q.Range.Expand(tree.MaxExtent())) {
			cells++
			if p.Marked() && !p.Extent().Intersects(q.Range) {
				skipped++
			} else {
				visitedObjs += p.Count()
			}
		}
	}
	if skipped == 0 || visitedObjs == 0 {
		t.Fatalf("the window skips %d cells and visits %d objects; it must do both", skipped, visitedObjs)
	}

	m0, c0, d0 := env.ex.Metrics(), env.ex.CacheStats(), env.ex.DiskStats()
	got, err := env.ex.Query(q.Range, q.Datasets)
	if err != nil {
		t.Fatal(err)
	}
	m1, c1, d1 := env.ex.Metrics(), env.ex.CacheStats(), env.ex.DiskStats()
	// The oracle reads the raw files off the same device: after the snapshot.
	if want, err := env.oracle.Query(q.Range, q.Datasets); err != nil || !engine.SameObjects(got, want) {
		t.Fatalf("the query returned %d objects, the oracle %d (%v)", len(got), len(want), err)
	}
	if got := m1.ObjectsTested - m0.ObjectsTested; got != int64(visitedObjs) {
		t.Errorf("the query tested %d objects, want the %d of the cells it visits", got, visitedObjs)
	}
	if got := m1.PartitionsSkipped - m0.PartitionsSkipped; got != skipped {
		t.Errorf("the query skipped %d cells, want %d", got, skipped)
	}
	if got := m1.PartitionsFromTree - m0.PartitionsFromTree; got != cells-skipped {
		t.Errorf("the query read %d cells from the tree, want %d", got, cells-skipped)
	}
	if got := c1.Hits - c0.Hits; got != int64(cells) {
		t.Errorf("the query booked %d hits, want one for each of the window's %d cells", got, cells)
	}
	if c1.Misses != c0.Misses || c1.ContainmentHits != c0.ContainmentHits || c1.ZeroReadQueries != c0.ZeroReadQueries+1 {
		t.Errorf("the query was not a read-free run of exact hits: before %+v after %+v", c0, c1)
	}
	if d1.PageReads != d0.PageReads || d1.CacheHits != d0.CacheHits {
		t.Errorf("the query read pages: before %+v after %+v", d0, d1)
	}
}

// TestSkipStormMatchesOracle: concurrent serving queries over the half-filled
// volume — popular windows that merge, random ones that refine, many of them
// reaching into the empty half — while each goroutine flushes the result
// cache under the others' walks and background maintenance refines and
// merges. Every answer must be
// the oracle's, whichever cells were marked when each walk looked.
func TestSkipStormMatchesOracle(t *testing.T) {
	env := halfSpaceEnv(t, Options{CacheResults: true, AsyncMaintenance: true, MaintenanceWorkers: 2}, 3)
	defer env.ex.Close()
	var wg sync.WaitGroup
	errc := make(chan error, 4)
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(300 + g)))
			for i := range 60 {
				q := env.randomQuery(rng)
				if i%3 == 0 {
					// Straddling the filled half and the empty one.
					q.Range = Cube(V(0.4+0.2*rng.Float64(), rng.Float64(), rng.Float64()), 0.02+0.1*rng.Float64())
				}
				if err := env.check(q); err != nil {
					errc <- fmt.Errorf("goroutine %d query %d: %w", g, i, err)
					return
				}
				if i%5 == 4 {
					env.ex.FlushResultCache() // under the other goroutines' walks
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := env.ex.Quiesce(ctx); err != nil {
		t.Fatal(err)
	}
	if err := env.ex.MaintenanceErr(); err != nil {
		t.Fatalf("background maintenance failed: %v", err)
	}
	m, c := env.ex.Metrics(), env.ex.CacheStats()
	if m.PartitionsSkipped == 0 || m.Refinements == 0 || m.MergeFilesCreated == 0 || c.Invalidations == 0 {
		t.Fatalf("the storm exercised too little: %d skipped, %d refinements, %d merge files, %d invalidations",
			m.PartitionsSkipped, m.Refinements, m.MergeFilesCreated, c.Invalidations)
	}
}
