package odyssey

import (
	"context"
	"sync"
	"testing"

	"spaceodyssey/internal/pagefile"
)

// derivedFaultPlan puts a permanent fault on every page the Explorer's tree
// and merge files hold now, as explicit PageFaults; raw files stay clean, and
// pages written later read clean.
func derivedFaultPlan(t *testing.T, ex *Explorer) FaultPlan {
	t.Helper()
	var plan FaultPlan
	add := func(f *pagefile.File) {
		n, err := f.NumPages()
		if err != nil {
			t.Fatal(err)
		}
		for p := int64(0); p < n; p++ {
			plan.Pages = append(plan.Pages, PageFault{File: f.ID(), Page: p, Kind: FaultPermanent})
		}
	}
	for id := range ex.raws {
		add(ex.engine.Tree(id).File())
	}
	for _, mf := range ex.engine.Merger().Files() {
		add(mf.File())
	}
	return plan
}

// TestDerivedFaultsAreRepaired holds the repair claim end to end: converge a
// zipf workload, then fault every page the tree and merge files hold,
// permanently (the raw files untouched), and replay it cold-cache. Every
// query is served and returns exactly what the fault-free replay returned,
// and the repairs show in Metrics. The paper options replay serially with
// inline maintenance; the serving preset replays from two submitters with
// background maintenance. The cluster's leg is TestShardRepairsInsteadOfFailingOver.
func TestDerivedFaultsAreRepaired(t *testing.T) {
	w, err := GenerateWorkload(WorkloadConfig{
		Seed: 7, NumQueries: 80, NumDatasets: 4, DatasetsPerQuery: 3, QueryVolumeFrac: 1e-3,
		RangeDist: RangeClustered, CombDist: CombZipf, ClusterCenters: 4, SigmaFactor: 0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	data := GenerateDatasets(DataConfig{Seed: 1, NumObjects: 4000, Clusters: 4}, 4)
	for _, tc := range []struct {
		name       string
		opts       Options
		submitters int
	}{
		{"paper", Options{}, 1},
		{"serving", Options{AsyncMaintenance: true, CacheResults: true}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ex, err := NewExplorer(tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer ex.Close()
			for i, objs := range data {
				if err := ex.AddDataset(DatasetID(i), objs); err != nil {
					t.Fatal(err)
				}
			}
			replay := func() ([][]Object, []error) {
				ex.FlushResultCache()
				results, errs := make([][]Object, len(w.Queries)), make([]error, len(w.Queries))
				var wg sync.WaitGroup
				for s := 0; s < tc.submitters; s++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := s; i < len(w.Queries); i += tc.submitters {
							results[i], errs[i] = ex.Query(w.Queries[i].Range, w.Queries[i].Datasets)
						}
					}()
				}
				wg.Wait()
				if err := ex.Quiesce(context.Background()); err != nil {
					t.Fatal(err)
				}
				return results, errs
			}
			for pass := 0; ; pass++ {
				before := ex.Metrics()
				replay()
				after := ex.Metrics()
				if after.Refinements == before.Refinements && after.PartitionsMerged == before.PartitionsMerged {
					break
				}
				if pass == 8 {
					t.Fatal("layout still adapting after 8 passes")
				}
			}
			clean, errs := replay()
			for i, err := range errs {
				if err != nil {
					t.Fatalf("fault-free query %d: %v", i, err)
				}
			}
			if ex.MergeFileCount() == 0 {
				t.Fatal("the converged layout has no merge file")
			}

			ex.SetFaultPlan(derivedFaultPlan(t, ex))
			faulted, errs := replay()
			served := 0
			for i, err := range errs {
				if err != nil {
					t.Errorf("query %d: %v", i, err)
					continue
				}
				served++
				if !sameObjects(faulted[i], clean[i]) {
					t.Errorf("query %d returned %d objects, fault-free %d", i, len(faulted[i]), len(clean[i]))
				}
			}
			m := ex.Metrics()
			t.Logf("%d/%d served; %d permanent faults, %d partitions re-derived, %d merge files evicted",
				served, len(w.Queries), ex.DiskStats().PermanentFaults, m.PartitionsRepaired, m.MergeFilesRepaired)
			if m.PartitionsRepaired == 0 || m.MergeFilesRepaired == 0 {
				t.Errorf("repaired %d partitions and %d merge files; both kinds must be exercised",
					m.PartitionsRepaired, m.MergeFilesRepaired)
			}
		})
	}
}
